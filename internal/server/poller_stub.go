//go:build !linux

package server

// Platforms without the epoll shim serve every connection on the
// goroutine transport: newPoller reports unsupported and Server.New keeps
// s.poller nil. The protocol engine (event.go) is the same one.

import "errors"

var errPollerUnsupported = errors.New("server: readiness poller unsupported on this platform")

func newPoller(*Server) (connPoller, error) { return nil, errPollerUnsupported }

// tryFlush reaches writevRawFd only with fd >= 0, which only a poller hands
// out.
func writevRawFd(int, []byte, []byte) (int, bool, error) {
	return 0, false, errPollerUnsupported
}
