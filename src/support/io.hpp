// Shared socket-syscall seam for everything in the runtime that does
// real I/O (runtime::DebugEndpoint, runtime::TcpTransport), and the
// whole-file write every dump and export goes through.
//
// Real networks deliver their failure modes — EINTR, short writes,
// EAGAIN, torn connections — at syscall granularity, and unit tests
// need to inject exactly those without arranging real signal delivery
// or socket buffer pressure. Every raw socket call therefore goes
// through this function-pointer table; tests swap individual entries
// (an interposer that returns EINTR for the first N calls, a send that
// only accepts one byte at a time) and restore them afterwards.
//
// The EINTR discipline every user of these hooks must follow:
//   * send/recv/accept returning -1 with errno == EINTR is NOT an
//     error — retry the call;
//   * a short send is NOT an error — advance the cursor and continue;
//   * EAGAIN/EWOULDBLOCK means "stop for now", never "tear down".
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <string>

namespace script::support {

/// The raw socket calls, overridable for deterministic fault injection.
/// Defaults to ::send / ::recv / ::accept4 / ::connect.
struct IoHooks {
  ssize_t (*send)(int fd, const void* buf, size_t len, int flags);
  ssize_t (*recv)(int fd, void* buf, size_t len, int flags);
  int (*accept)(int fd, sockaddr* addr, socklen_t* alen, int flags);
  int (*connect)(int fd, const sockaddr* addr, socklen_t alen);
};

/// Process-wide hook table. Tests that swap entries must restore them
/// (the DebugEndpointIo/TcpTransportIo fixtures do this in TearDown).
extern IoHooks io;

/// Write `body` to `path`, replacing it: the one file write behind every
/// dump and export. False if the file cannot be opened, written or closed.
bool write_file(const std::string& path, const std::string& body);

}  // namespace script::support
