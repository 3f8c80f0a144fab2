//go:build !linux

package main

import (
	"fmt"
	"net"
)

// listener is a bound TCP socket the daemon serves on; listen_linux.go
// has the one that links no net.
type listener = net.Listener

// listen opens a TCP listener through package net; on Linux the daemon
// opens its own sockets instead (listen_linux.go). flag names the
// option in errors.
func listen(flag, address string) (listener, error) {
	l, err := net.Listen("tcp", address)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flag, err)
	}
	return l, nil
}
