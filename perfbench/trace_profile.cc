// Reads a DB::StartTrace file back through TraceReader and splits every
// span's duration into self time and time covered by its children.

#include <algorithm>

#include "perfbench.h"
#include "util/trace.h"

namespace shield {
namespace perfbench {

namespace {

struct Node {
  uint64_t id;
  uint64_t parent;
  uint64_t start;
  uint64_t end;
  SpanType type;
};

struct ChildInterval {
  size_t parent;  // index into the id-sorted node vector
  uint64_t start;
  uint64_t end;
};

bool IsClientRoot(const Node& n) {
  return n.parent == 0 &&
         (n.type == SpanType::kDbGet || n.type == SpanType::kDbWrite ||
          n.type == SpanType::kDbSeek);
}

}  // namespace

Status ProfileTrace(Env* env, const std::string& path, TraceProfile* out) {
  std::unique_ptr<TraceReader> reader;
  Status s = TraceReader::Open(env, path, &reader);
  if (!s.ok()) {
    return s;
  }
  std::vector<Node> nodes;
  SpanRecord record;
  while (reader->Next(&record)) {
    if (record.type >= SpanType::kMaxSpanType) {
      continue;
    }
    nodes.push_back({record.span_id, record.parent_id, record.start_micros,
                     record.start_micros + record.duration_micros,
                     record.type});
  }
  out->truncated = reader->truncated();
  reader.reset();

  // A span id is allocated when the span opens, so a parent's id is
  // smaller than its children's: in id order every parent comes first.
  std::sort(nodes.begin(), nodes.end(),
            [](const Node& a, const Node& b) { return a.id < b.id; });
  auto find = [&nodes](uint64_t id) -> size_t {
    auto it = std::lower_bound(
        nodes.begin(), nodes.end(), id,
        [](const Node& n, uint64_t v) { return n.id < v; });
    return it != nodes.end() && it->id == id ? it - nodes.begin()
                                             : nodes.size();
  };

  std::vector<size_t> root(nodes.size());
  std::vector<ChildInterval> children;
  children.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); i++) {
    const size_t p =
        nodes[i].parent == 0 ? nodes.size() : find(nodes[i].parent);
    root[i] = p < i ? root[p] : i;
    if (p < i) {
      children.push_back({p, nodes[i].start, nodes[i].end});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const ChildInterval& a, const ChildInterval& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.start < b.start;
            });

  // covered[p]: length of the union of p's children, clipped to p.
  std::vector<uint64_t> covered(nodes.size(), 0);
  for (size_t c = 0; c < children.size();) {
    const size_t p = children[c].parent;
    const uint64_t lo = nodes[p].start;
    const uint64_t hi = nodes[p].end;
    uint64_t run_start = 0;
    uint64_t run_end = 0;
    bool open = false;
    for (; c < children.size() && children[c].parent == p; c++) {
      const uint64_t s0 = std::max(children[c].start, lo);
      const uint64_t e0 = std::min(children[c].end, hi);
      if (e0 <= s0) {
        continue;
      }
      if (open && s0 <= run_end) {
        run_end = std::max(run_end, e0);
        continue;
      }
      if (open) {
        covered[p] += run_end - run_start;
      }
      run_start = s0;
      run_end = e0;
      open = true;
    }
    if (open) {
      covered[p] += run_end - run_start;
    }
  }

  for (size_t i = 0; i < nodes.size(); i++) {
    const Node& n = nodes[i];
    const uint64_t self = (n.end - n.start) - covered[i];
    out->self_us[SpanTypeName(n.type)] += self;
    out->spans++;
    if (IsClientRoot(nodes[root[i]])) {
      out->client_tree_self_us += self;
      out->client_tree_us[SpanTypeName(n.type)] += n.end - n.start;
    }
    if (IsClientRoot(n)) {
      out->client_roots++;
      out->client_root_us += n.end - n.start;
    }
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace shield
