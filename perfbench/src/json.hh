/**
 * @file
 * Minimal JSON emitter for the benchmark's result document.  Numbers
 * are printed with full precision (%.17g) so measured values keep all
 * their digits; non-finite values become null.
 */

#ifndef PERFBENCH_JSON_HH
#define PERFBENCH_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/** Streaming writer; the caller balances begin/end calls. */
class JsonWriter
{
  public:
    JsonWriter &beginObject() { open('{'); return *this; }
    JsonWriter &endObject() { close('}'); return *this; }
    JsonWriter &beginArray() { open('['); return *this; }
    JsonWriter &endArray() { close(']'); return *this; }

    JsonWriter &
    key(const std::string &k)
    {
        separate();
        out_ += jsonString(k) + ":";
        after_key_ = true;
        return *this;
    }

    JsonWriter &
    value(double v)
    {
        separate();
        if (!std::isfinite(v)) {
            out_ += "null";
        } else {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out_ += buf;
        }
        return *this;
    }

    JsonWriter &
    value(std::uint64_t v)
    {
        separate();
        out_ += std::to_string(v);
        return *this;
    }

    JsonWriter &value(unsigned v) { return value(std::uint64_t{v}); }

    JsonWriter &
    value(bool v)
    {
        separate();
        out_ += v ? "true" : "false";
        return *this;
    }

    JsonWriter &
    value(const std::string &v)
    {
        separate();
        out_ += jsonString(v);
        return *this;
    }

    JsonWriter &value(const char *v) { return value(std::string(v)); }

    JsonWriter &
    null()
    {
        separate();
        out_ += "null";
        return *this;
    }

    template <class T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

    const std::string &str() const { return out_; }

  private:
    void
    open(char c)
    {
        separate();
        out_ += c;
        first_.push_back(true);
    }

    void
    close(char c)
    {
        out_ += c;
        first_.pop_back();
    }

    void
    separate()
    {
        if (after_key_) {
            after_key_ = false;
            return;
        }
        if (!first_.empty()) {
            if (!first_.back())
                out_ += ',';
            first_.back() = false;
        }
    }

    std::string out_;
    std::vector<bool> first_;
    bool after_key_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_JSON_HH
