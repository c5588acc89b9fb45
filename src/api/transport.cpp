#include "api/transport.h"

#include <istream>
#include <ostream>
#include <string>

namespace nwdec::api {

stdio_transport::stdio_transport(std::istream& in, std::ostream& out)
    : in_(in), out_(out) {}

namespace {

// stdout can interleave pushed lines just fine, so the stdio loop runs
// the streaming entry point: a scripted "subscribe" works in batch mode
// too (its events appear as ordinary output lines).
class ostream_sink final : public line_sink {
 public:
  explicit ostream_sink(std::ostream& out) : out_(out) {}
  bool write(const std::string& line) override {
    out_ << line << std::flush;
    return static_cast<bool>(out_);
  }

 private:
  std::ostream& out_;
};

}  // namespace

int stdio_transport::serve(dispatcher& dispatch) {
  ostream_sink sink(out_);
  std::string line;
  while (std::getline(in_, line)) {
    if (line.empty()) continue;
    dispatch.handle_stream(line, sink);
  }
  return 0;
}

}  // namespace nwdec::api
