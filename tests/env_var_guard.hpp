// Scoped removal of an environment variable for a test's duration.
//
// Every Scheduler constructor arms recorders from $SCRIPT_TRACE,
// $SCRIPT_FLIGHT, $SCRIPT_TIMELINE and $SCRIPT_DEBUG_SOCK, and arming
// is idempotent: CI sets some of them for the whole suite, so a test
// that needs its own recorder options, socket path or an exact event
// stream clears them first. The destructor restores the saved value.
#pragma once

#include <cstdlib>
#include <string>

class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) {
      saved_ = v;
      had_ = true;
    }
    unsetenv(name);
  }
  ~EnvVarGuard() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }
  EnvVarGuard(const EnvVarGuard&) = delete;
  EnvVarGuard& operator=(const EnvVarGuard&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};
