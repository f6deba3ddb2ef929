#pragma once
// TimedLineSink — an ostream that collects the Mastermind's telemetry
// until each newline, then hands the complete line to the hub sink it
// wraps inside a core.hub.publish span. One write per line, so the span
// holds exactly the hub's publish path (line split, shard lock, ring
// append) and not the Mastermind's formatting.

#include <ostream>
#include <streambuf>
#include <string>

#include "ledger.hpp"

namespace fig01bench {

class TimedLineBuf : public std::streambuf {
 public:
  explicit TimedLineBuf(std::ostream& hub) : out_(hub) {}
  ~TimedLineBuf() override {
    if (!pending_.empty())
      out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  }
  TimedLineBuf(const TimedLineBuf&) = delete;
  TimedLineBuf& operator=(const TimedLineBuf&) = delete;

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      pending_.push_back(s[i]);
      if (s[i] != '\n') continue;
      {
        Span span(Layer::hub_publish);
        out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
      }
      ++thread_stack().totals().hub_lines;
      pending_.clear();
    }
    return n;
  }

  int sync() override {
    out_.flush();
    return 0;
  }

 private:
  std::ostream& out_;
  std::string pending_;
};

/// ostream owning its TimedLineBuf (the buf is a base so it is built
/// before std::ostream sees it).
class TimedLineSink : private TimedLineBuf, public std::ostream {
 public:
  explicit TimedLineSink(std::ostream& hub)
      : TimedLineBuf(hub), std::ostream(static_cast<TimedLineBuf*>(this)) {}
};

}  // namespace fig01bench
