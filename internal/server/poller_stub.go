//go:build !linux

package server

// Platforms without the epoll shim serve every connection on the
// goroutine transport: newPoller reports unsupported and Server.New keeps
// s.poller nil. The protocol engine (event.go) is the same one.

import "errors"

var errPollerUnsupported = errors.New("server: readiness poller unsupported on this platform")

func newPoller(*Server) (connPoller, error) { return nil, errPollerUnsupported }
