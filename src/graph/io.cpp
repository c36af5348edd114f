#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graph/builder.h"

namespace ecl {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x45434c4347313041ULL;  // "ECLCG10A"

/// Declared sizes in file headers are attacker-controlled: a 40-byte file
/// claiming 10^18 edges must not drive a pre-allocation. reserve() at most
/// this much up front; honest larger inputs just grow geometrically.
constexpr std::uint64_t kMaxTrustedReserve = 1u << 20;

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

/// Validates a declared vertex count before it is narrowed to vertex_t.
/// kInvalidVertex (2^32-1) is excluded too — it is the sentinel.
vertex_t checked_vertex_count(std::uint64_t n, const char* format) {
  if (n >= static_cast<std::uint64_t>(kInvalidVertex)) {
    fail(std::string(format) + " vertex count overflows 32-bit vertex ids: " +
         std::to_string(n));
  }
  return static_cast<vertex_t>(n);
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open graph file: " + path);
  return in;
}

/// Remaps arbitrary 64-bit vertex IDs (SNAP files routinely skip IDs) to a
/// dense [0, n) range in first-appearance order.
class IdCompactor {
 public:
  vertex_t map(std::uint64_t raw) {
    if (next_ == kInvalidVertex) fail("edge list has more than 2^32-2 distinct vertex ids");
    const auto [it, inserted] = ids_.try_emplace(raw, next_);
    if (inserted) ++next_;
    return it->second;
  }
  [[nodiscard]] vertex_t size() const { return next_; }

 private:
  std::unordered_map<std::uint64_t, vertex_t> ids_;
  vertex_t next_ = 0;
};

}  // namespace

Graph read_edge_list(std::istream& in) {
  IdCompactor compact;
  std::vector<Edge> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(ss >> u >> v)) fail("malformed edge list line: " + line);
    edges.emplace_back(compact.map(u), compact.map(v));
  }
  return build_graph(compact.size(), edges);
}

Graph load_edge_list(const std::string& path) {
  auto in = open_or_throw(path);
  return read_edge_list(in);
}

Graph read_dimacs(std::istream& in) {
  std::string line;
  vertex_t n = 0;
  std::vector<Edge> edges;
  bool saw_problem = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ss(line);
    char tag = 0;
    ss >> tag;
    if (tag == 'p') {
      std::string kind;
      std::uint64_t nn = 0;
      std::uint64_t mm = 0;
      if (!(ss >> kind >> nn >> mm)) fail("malformed DIMACS problem line: " + line);
      n = checked_vertex_count(nn, "DIMACS");
      edges.reserve(static_cast<std::size_t>(std::min(mm, kMaxTrustedReserve)));
      saw_problem = true;
    } else if (tag == 'a' || tag == 'e') {
      if (!saw_problem) fail("DIMACS edge before problem line");
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      if (!(ss >> u >> v)) fail("malformed DIMACS arc line: " + line);
      if (u == 0 || v == 0 || u > n || v > n) fail("DIMACS vertex out of range: " + line);
      edges.emplace_back(static_cast<vertex_t>(u - 1), static_cast<vertex_t>(v - 1));
    }
  }
  if (!saw_problem) fail("DIMACS file has no problem line");
  return build_graph(n, edges);
}

Graph load_dimacs(const std::string& path) {
  auto in = open_or_throw(path);
  return read_dimacs(in);
}

Graph read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line.rfind("%%MatrixMarket", 0) != 0) {
    fail("not a MatrixMarket file");
  }
  if (line.find("coordinate") == std::string::npos) {
    fail("only coordinate-format MatrixMarket files are supported");
  }
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
  if (!(size_line >> rows >> cols >> nnz)) fail("malformed MatrixMarket size line");
  const vertex_t n = checked_vertex_count(std::max(rows, cols), "MatrixMarket");

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(std::min(nnz, kMaxTrustedReserve)));
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ss(line);
    std::uint64_t r = 0;
    std::uint64_t c = 0;
    if (!(ss >> r >> c)) fail("malformed MatrixMarket entry: " + line);
    if (r == 0 || c == 0 || r > n || c > n) fail("MatrixMarket entry out of range: " + line);
    edges.emplace_back(static_cast<vertex_t>(r - 1), static_cast<vertex_t>(c - 1));
  }
  return build_graph(n, edges);
}

Graph load_matrix_market(const std::string& path) {
  auto in = open_or_throw(path);
  return read_matrix_market(in);
}

void save_binary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot write graph file: " + path);
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  out.write(reinterpret_cast<const char*>(&kBinaryMagic), sizeof(kBinaryMagic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() * sizeof(edge_t)));
  out.write(reinterpret_cast<const char*>(g.adjacency().data()),
            static_cast<std::streamsize>(g.adjacency().size() * sizeof(vertex_t)));
  if (!out) fail("short write to graph file: " + path);
}

Graph load_binary(const std::string& path) {
  auto in = open_or_throw(path);
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  std::uint64_t magic = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in || magic != kBinaryMagic) fail("bad binary graph header: " + path);
  // The header's n and m are untrusted. Check they fit the vertex id space
  // AND the actual file size before allocating (n+1)*8 + m*4 bytes — a
  // 24-byte file must not drive a multi-GiB allocation or an n+1 overflow.
  (void)checked_vertex_count(n, "binary graph");
  const std::uint64_t body_bytes = 3 * sizeof(std::uint64_t);
  if (file_size < body_bytes || (n + 1) > (file_size - body_bytes) / sizeof(edge_t) ||
      m > (file_size - body_bytes - (n + 1) * sizeof(edge_t)) / sizeof(vertex_t)) {
    fail("binary graph header declares more data than the file holds: " + path);
  }
  UninitVector<edge_t> offsets(n + 1);
  UninitVector<vertex_t> adjacency(m);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(edge_t)));
  in.read(reinterpret_cast<char*>(adjacency.data()),
          static_cast<std::streamsize>(adjacency.size() * sizeof(vertex_t)));
  if (!in) fail("truncated binary graph: " + path);
  if (offsets.front() != 0 || offsets.back() != m) fail("corrupt CSR offsets: " + path);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) fail("corrupt CSR offsets: " + path);
  }
  for (const vertex_t v : adjacency) {
    if (v >= n) fail("corrupt CSR adjacency: " + path);
  }
  return Graph(std::move(offsets), std::move(adjacency));
}

namespace {

std::ofstream open_for_write(const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot write graph file: " + path);
  return out;
}

void check_write(const std::ostream& out, const char* format) {
  if (!out) fail(std::string("short write emitting ") + format + " graph");
}

/// Calls fn(v, u) once per undirected edge, with v >= u (the conditioned
/// CSR stores both directions; emit the downward one).
template <typename Fn>
void for_each_undirected_edge(const Graph& g, Fn&& fn) {
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const vertex_t u : g.neighbors(v)) {
      if (u <= v) fn(v, u);
    }
  }
}

}  // namespace

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# " << g.num_vertices() << " vertices, " << g.num_edges()
      << " directed edges\n";
  for_each_undirected_edge(g, [&](vertex_t v, vertex_t u) { out << v << ' ' << u << '\n'; });
  check_write(out, "edge list");
}

void save_edge_list(const Graph& g, const std::string& path) {
  auto out = open_for_write(path);
  write_edge_list(g, out);
}

void write_dimacs(const Graph& g, std::ostream& out) {
  out << "c ECL-CC graph\n";
  out << "p sp " << g.num_vertices() << ' ' << g.num_edges() / 2 << '\n';
  for_each_undirected_edge(
      g, [&](vertex_t v, vertex_t u) { out << "a " << v + 1 << ' ' << u + 1 << " 1\n"; });
  check_write(out, "DIMACS");
}

void save_dimacs(const Graph& g, const std::string& path) {
  auto out = open_for_write(path);
  write_dimacs(g, out);
}

void write_matrix_market(const Graph& g, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  out << g.num_vertices() << ' ' << g.num_vertices() << ' ' << g.num_edges() / 2 << '\n';
  for_each_undirected_edge(
      g, [&](vertex_t v, vertex_t u) { out << v + 1 << ' ' << u + 1 << '\n'; });
  check_write(out, "MatrixMarket");
}

void save_matrix_market(const Graph& g, const std::string& path) {
  auto out = open_for_write(path);
  write_matrix_market(g, out);
}

namespace {

bool ends_with(const std::string& path, const char* suffix) {
  const std::string s(suffix);
  return path.size() >= s.size() &&
         path.compare(path.size() - s.size(), s.size(), s) == 0;
}

}  // namespace

Graph load_auto(const std::string& path) {
  if (ends_with(path, ".gr")) return load_dimacs(path);
  if (ends_with(path, ".mtx")) return load_matrix_market(path);
  if (ends_with(path, ".eclg")) return load_binary(path);
  return load_edge_list(path);
}

void save_auto(const Graph& g, const std::string& path) {
  if (ends_with(path, ".gr")) return save_dimacs(g, path);
  if (ends_with(path, ".mtx")) return save_matrix_market(g, path);
  if (ends_with(path, ".eclg")) return save_binary(g, path);
  return save_edge_list(g, path);
}

}  // namespace ecl
