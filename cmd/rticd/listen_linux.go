package main

import (
	"fmt"

	"rtic/internal/sock"
)

// listener is a bound TCP socket the daemon serves on; listen_other.go
// has the net one.
type listener = *sock.Listener

// listen opens a TCP listener from system-call sockets (internal/sock),
// so the Linux daemon links no package net, whose cgo resolver would
// make its build dynamic and map the C library. address is an IP
// literal with a port; flag names the option in errors.
func listen(flag, address string) (listener, error) {
	l, err := sock.Listen(address)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", flag, address, err)
	}
	return l, nil
}
