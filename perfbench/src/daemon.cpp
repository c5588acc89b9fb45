#include "daemon.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "util/json.h"
#include "util/net.h"

extern char** environ;

namespace perfbench {

namespace {

using std::chrono::steady_clock;

int connect_nodelay(std::uint16_t port) {
  const int fd = nwdec::net::connect_tcp("127.0.0.1", port, 5000);
  if (fd < 0) {
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_or_throw(int fd, const std::string& bytes) {
  if (!nwdec::net::send_all(fd, bytes)) {
    throw std::runtime_error("send failed: connection closed");
  }
}

// Appends at least one more chunk from `fd` to `buffer`; throws on
// EOF, error, or timeout.
void read_more(int fd, std::string& buffer, int timeout_ms) {
  char chunk[65536];
  const long n = nwdec::net::read_some(fd, chunk, sizeof chunk, timeout_ms);
  if (n == -2) throw std::runtime_error("read timed out");
  if (n <= 0) throw std::runtime_error("connection closed by the daemon");
  buffer.append(chunk, static_cast<std::size_t>(n));
}

// The port of the first complete log record whose "event" is `event`, or
// 0 (the daemon may be mid-way through writing a record).
std::uint16_t logged_port(const std::string& log, const std::string& event) {
  const std::string needle = "\"event\":\"" + event + "\"";
  for (std::size_t begin = 0, end; (end = log.find('\n', begin)) !=
                                   std::string::npos;
       begin = end + 1) {
    const std::string line = log.substr(begin, end - begin);
    if (line.find(needle) == std::string::npos) continue;
    const nwdec::json_value record = nwdec::json_parse(line);
    return static_cast<std::uint16_t>(record.at("port").as_number());
  }
  return 0;
}

}  // namespace

double now_seconds() {
  static const steady_clock::time_point epoch = steady_clock::now();
  return std::chrono::duration<double>(steady_clock::now() - epoch).count();
}

daemon_process::~daemon_process() { kill_now(); }

double daemon_process::start(const std::string& binary,
                             std::vector<std::string> args,
                             const std::string& log_path) {
  ::unlink(log_path.c_str());
  args.insert(args.begin(), binary);
  for (const char* extra :
       {"--listen", "0", "--http-port", "0", "--log-file"}) {
    args.push_back(extra);
  }
  args.push_back(log_path);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t files;
  posix_spawn_file_actions_init(&files);
  for (const int fd : {0, 1, 2}) {
    posix_spawn_file_actions_addopen(&files, fd, "/dev/null",
                                     fd == 0 ? O_RDONLY : O_WRONLY, 0);
  }
  const double launched = now_seconds();
  const int spawned =
      posix_spawn(&pid_, binary.c_str(), &files, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&files);
  if (spawned != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot launch " + binary);
  }

  // Readiness: both listeners bound (their log records carry the ports),
  // then a first request answered. No fixed sleep anywhere.
  tcp_port_ = 0;
  http_port_ = 0;
  while (tcp_port_ == 0 || http_port_ == 0) {
    if (now_seconds() - launched > 60.0) {
      throw std::runtime_error("daemon did not report its ports in 60 s");
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during startup; see " +
                               log_path);
    }
    std::ifstream file(log_path);
    const std::string log((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
    tcp_port_ = logged_port(log, "listening");
    http_port_ = logged_port(log, "http_listening");
    if (tcp_port_ == 0 || http_port_ == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  line_client probe(tcp_port_);
  probe.send_line("{\"id\":0,\"kind\":\"stats\"}");
  const std::string answer = probe.read_line(60000);
  if (answer.find("\"ok\":true") == std::string::npos) {
    throw std::runtime_error("daemon readiness probe failed: " + answer);
  }
  return now_seconds() - launched;
}

double daemon_process::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM for the daemon process");
}

void daemon_process::kill_now() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

int daemon_process::terminate(int grace_ms) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const double deadline = now_seconds() + grace_ms / 1000.0;
  int status = 0;
  while (now_seconds() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill_now();
  return -1;
}

line_client::line_client(std::uint16_t port) : fd_(connect_nodelay(port)) {}

line_client::~line_client() { ::close(fd_); }

void line_client::send_line(const std::string& line) {
  send_or_throw(fd_, line + "\n");
}

std::string line_client::read_line(int timeout_ms) {
  for (;;) {
    const std::size_t end = buffer_.find('\n');
    if (end != std::string::npos) {
      std::string line = buffer_.substr(0, end);
      buffer_.erase(0, end + 1);
      return line;
    }
    read_more(fd_, buffer_, timeout_ms);
  }
}

http_client::http_client(std::uint16_t port) : fd_(connect_nodelay(port)) {}

http_client::~http_client() { ::close(fd_); }

std::string http_client::post_rpc(const std::string& line, int& status,
                                  int timeout_ms) {
  const std::string body = line + "\n";
  send_or_throw(fd_, "POST /v1/rpc HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Content-Type: application/x-ndjson\r\n"
                     "Content-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body);
  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    read_more(fd_, buffer_, timeout_ms);
  }
  const std::string head = buffer_.substr(0, head_end);
  status = std::stoi(head.substr(head.find(' ') + 1, 3));
  const std::string length_key = "Content-Length: ";
  const std::size_t at = head.find(length_key);
  if (at == std::string::npos) {
    throw std::runtime_error("HTTP response without Content-Length");
  }
  const std::size_t length = std::stoul(head.substr(at + length_key.size()));
  const std::size_t body_begin = head_end + 4;
  while (buffer_.size() < body_begin + length) {
    read_more(fd_, buffer_, timeout_ms);
  }
  std::string answer = buffer_.substr(body_begin, length);
  buffer_.erase(0, body_begin + length);
  while (!answer.empty() && answer.back() == '\n') answer.pop_back();
  return answer;
}

}  // namespace perfbench
