// End-to-end crossbar memory demo: fabricates one row cave and one column
// cave in simulation, decides which nanowires decode cleanly, assembles a
// crossbar_memory block, and stores/retrieves a text message through the
// defective fabric -- the complete system the paper's statistics describe.
// A remap controller then presents the usable lines as a dense logical
// memory, recovering the full message.
//
//   $ ./memory_demo --message "nanowires!"
#include <iostream>
#include <string>

#include "codes/factory.h"
#include "crossbar/memory.h"
#include "crossbar/remap.h"
#include "decoder/decoder_design.h"
#include "decoder/pattern_matrix.h"
#include "device/tech_params.h"
#include "fab/process_sim.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace nwdec;

// Decides per-nanowire usability by the operational criterion: its own
// address must select it and nothing else in the cave.
std::vector<bool> usable_lines(const decoder::decoder_design& design,
                               const fab::fab_result& fabbed) {
  const std::size_t n = design.nanowire_count();
  std::vector<bool> usable(n);
  for (std::size_t i = 0; i < n; ++i) {
    const codes::code_word address =
        decoder::pattern_row(design.pattern(), design.code().radix, i);
    const std::vector<double> drive =
        decoder::drive_pattern(address, design.levels());
    bool ok = decoder::conducts(fabbed.realized_vt.row(i), drive);
    for (std::size_t k = 0; ok && k < n; ++k) {
      if (k != i && decoder::conducts(fabbed.realized_vt.row(k), drive)) {
        ok = false;
      }
    }
    usable[i] = ok;
  }
  return usable;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("memory_demo", "store a message in a fabricated crossbar");
  cli.add_string("message", "hello, crossbar world", "text to store");
  cli.add_int("seed", 2009, "fabrication seed");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const device::technology tech = device::paper_technology();
  const codes::code code =
      codes::make_code(codes::code_type::balanced_gray, 2, 10);
  const std::size_t lines = 32;  // one full code space per axis

  // Fabricate the row cave and the column cave.
  const decoder::decoder_design design(code, lines, tech);
  const fab::process_simulator sim(design);
  rng random(static_cast<std::uint64_t>(cli.get_int("seed")));
  rng row_stream = random.fork();
  rng col_stream = random.fork();
  const std::vector<bool> row_ok = usable_lines(design, sim.run(row_stream));
  const std::vector<bool> col_ok = usable_lines(design, sim.run(col_stream));

  std::vector<codes::code_word> words(code.words.begin(),
                                      code.words.begin() + lines);
  crossbar::crossbar_memory memory(decoder::address_table{words},
                                   decoder::address_table{words}, row_ok,
                                   col_ok);

  std::cout << "fabricated a " << lines << "x" << lines
            << " crossbar block (BGC-10 decoders)\n"
            << "usable crosspoints: " << format_percent(memory.usable_fraction())
            << "\n\n";

  // Store the message bit by bit, skipping dead lines (a real controller
  // would remap; we simply report coverage).
  const std::string message = cli.get_string("message");
  std::size_t stored = 0;
  std::size_t total = 0;
  for (std::size_t c = 0; c < message.size() && c * 8 < lines * lines; ++c) {
    for (std::size_t b = 0; b < 8; ++b) {
      const std::size_t cell = c * 8 + b;
      const std::size_t row = cell / lines;
      const std::size_t col = cell % lines;
      const bool bit = (static_cast<unsigned char>(message[c]) >> b) & 1u;
      ++total;
      if (memory.write(words[row], words[col], bit)) ++stored;
    }
  }
  std::cout << "stored " << stored << "/" << total << " message bits\n";

  // Read back through the decoders.
  std::string readback;
  for (std::size_t c = 0; c * 8 < lines * lines && c < message.size(); ++c) {
    unsigned char byte = 0;
    bool complete = true;
    for (std::size_t b = 0; b < 8; ++b) {
      const std::size_t cell = c * 8 + b;
      const auto bit = memory.read(words[cell / lines], words[cell % lines]);
      if (!bit.has_value()) {
        complete = false;
        break;
      }
      byte = static_cast<unsigned char>(byte | (static_cast<unsigned char>(*bit ? 1 : 0) << b));
    }
    readback += complete ? static_cast<char>(byte) : '?';
  }
  std::cout << "readback: \"" << readback << "\"  ('?' = byte hit a dead "
            << "line)\n\n";

  // Row/column sparing: the remap controller compacts the usable lines
  // into a dense logical space, so every stored bit survives.
  crossbar::crossbar_memory spare_memory(decoder::address_table{words},
                                         decoder::address_table{words},
                                         row_ok, col_ok);
  crossbar::remap_controller controller(std::move(spare_memory), words,
                                        words);
  std::cout << "remap controller: " << controller.rows() << "x"
            << controller.cols() << " logical cells ("
            << format_percent(static_cast<double>(controller.capacity_bits()) /
                              static_cast<double>(lines * lines))
            << " of raw capacity, all guaranteed usable)\n";

  std::string remapped;
  const std::size_t logical_cols = controller.cols();
  bool fits = message.size() * 8 <= controller.capacity_bits();
  if (fits) {
    for (std::size_t c = 0; c < message.size(); ++c) {
      for (std::size_t b = 0; b < 8; ++b) {
        const std::size_t cell = c * 8 + b;
        controller.write(cell / logical_cols, cell % logical_cols,
                         (static_cast<unsigned char>(message[c]) >> b) & 1u);
      }
    }
    for (std::size_t c = 0; c < message.size(); ++c) {
      unsigned char byte = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        const std::size_t cell = c * 8 + b;
        const auto bit =
            controller.read(cell / logical_cols, cell % logical_cols);
        byte = static_cast<unsigned char>(
            byte | (static_cast<unsigned char>(bit.value_or(false) ? 1 : 0) << b));
      }
      remapped += static_cast<char>(byte);
    }
    std::cout << "remapped readback: \"" << remapped << "\" ("
              << (remapped == message ? "exact recovery" : "MISMATCH")
              << ")\n";
  } else {
    std::cout << "message does not fit the remapped capacity\n";
  }
  return 0;
}
