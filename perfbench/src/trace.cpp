#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Tracer::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.start = now();
  spans_.push_back(rec);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<Tracer::RootSummary> Tracer::summarize() const {
  const std::size_t n = spans_.size();
  std::vector<double> child(n, 0.0);
  std::vector<int> root(n, -1);
  std::vector<RootSummary> out;
  std::vector<int> slot(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[i];
    const double dur = s.end - s.start;
    if (s.parent < 0) {
      root[i] = static_cast<int>(i);
      slot[i] = static_cast<int>(out.size());
      RootSummary r;
      r.duration = dur;
      out.push_back(r);
    } else {
      const auto p = static_cast<std::size_t>(s.parent);
      root[i] = root[p];
      child[p] += dur;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[i];
    RootSummary& r = out[static_cast<std::size_t>(
        slot[static_cast<std::size_t>(root[i])])];
    const double dur = s.end - s.start;
    r.total[s.name] += dur;
    r.self[s.name] += dur - child[i];
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d}%s\n",
                 s.name, s.start, s.end, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace perfbench
