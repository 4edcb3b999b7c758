#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
}

void Report::note(const std::string& line) {
  notes_.push_back(line);
}

int Report::finish() const {
  for (const std::string& line : notes_) {
    std::cout << line << "\n";
  }
  bool finite = true;
  std::string values;
  for (const auto& [name, value] : values_) {
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: metric " << name << " is not a finite number\n";
      finite = false;
      continue;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    values += std::string(values.empty() ? "" : ", ") + "\"" + name + "\": " + number;
  }
  const bool ok = correct() && finite && attempted_ > 0;
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(attempted_, 1)
            << ", \"failed\": " << (ok ? failed_ : std::max<std::size_t>(failed_, 1))
            << ", \"values\": {" << values << "}}" << std::endl;
  return ok ? 0 : 1;
}

}  // namespace perfbench
