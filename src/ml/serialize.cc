#include "ml/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace esim::ml {
namespace {

constexpr std::uint32_t kMagic = 0x45534D4C;  // "ESML"

void write_u32(std::ofstream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("load_parameters: " + what);
}

}  // namespace

void save_parameters(const std::string& path,
                     const std::vector<Parameter>& params) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os) throw std::runtime_error("save_parameters: cannot open " + path);
  write_u32(os, kMagic);
  write_u32(os, static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    write_u32(os, static_cast<std::uint32_t>(p.name.size()));
    os.write(p.name.data(), static_cast<std::streamsize>(p.name.size()));
    write_u32(os, static_cast<std::uint32_t>(p.value->rows()));
    write_u32(os, static_cast<std::uint32_t>(p.value->cols()));
    os.write(reinterpret_cast<const char*>(p.value->data()),
             static_cast<std::streamsize>(p.value->size() * sizeof(double)));
  }
  if (!os) throw std::runtime_error("save_parameters: write failed");
}

void load_parameters(const std::string& path, Module& module) {
  std::ifstream is{path, std::ios::binary | std::ios::ate};
  if (!is) fail("cannot open " + path);
  auto left = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  // Refuses, before reading, a field longer than what is left.
  const auto read = [&](void* out, std::uint64_t bytes) {
    if (bytes > left) fail("truncated file");
    is.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
    if (!is) fail("read failed");
    left -= bytes;
  };
  const auto read_u32 = [&] {
    std::uint32_t v = 0;
    read(&v, sizeof v);
    return v;
  };
  if (read_u32() != kMagic) fail("bad magic in " + path);
  const std::vector<Parameter> params = module.parameters();
  const std::uint32_t count = read_u32();
  if (count != params.size()) {
    fail("parameter count mismatch: file has " + std::to_string(count) +
         ", module has " + std::to_string(params.size()));
  }
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < params.size(); ++i) {
    index.emplace(params[i].name, i);
  }
  // Staged so that a failing file leaves the module as it was. With the
  // count equal and no name repeated, every parameter is read once.
  std::vector<std::vector<double>> staged(params.size());
  std::vector<bool> seen(params.size(), false);
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t name_len = read_u32();
    if (name_len > left) {
      fail("name length " + std::to_string(name_len) +
           " runs past the end of the file (" + std::to_string(left) +
           " bytes left)");
    }
    std::string name(name_len, '\0');
    read(name.data(), name_len);
    const std::uint32_t rows = read_u32();
    const std::uint32_t cols = read_u32();
    const auto it = index.find(name);
    if (it == index.end()) fail("unknown parameter " + name);
    if (seen[it->second]) fail("parameter " + name + " appears twice");
    seen[it->second] = true;
    const Tensor& t = *params[it->second].value;
    if (t.rows() != rows || t.cols() != cols) {
      fail("shape mismatch for " + name + ": file " + std::to_string(rows) +
           "x" + std::to_string(cols) + ", module " +
           std::to_string(t.rows()) + "x" + std::to_string(t.cols()));
    }
    std::vector<double>& values = staged[it->second];
    values.resize(t.size());
    read(values.data(), values.size() * sizeof(double));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), params[i].value->data());
  }
  module.bump_weight_version();
}

}  // namespace esim::ml
