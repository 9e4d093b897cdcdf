#include "support/io.hpp"

#include <cstdio>

namespace script::support {

IoHooks io = {&::send, &::recv, &::accept4, &::connect};

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace script::support
