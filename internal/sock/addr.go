// Package sock opens TCP listeners from system-call sockets, for a
// daemon that must not link package net: net carries cgo resolver
// files, so importing it makes a default (CGO_ENABLED=1) build dynamic
// and maps the C library into every process. An address here is an IP
// literal with a port; there is no resolver.
//
// The listener itself is Linux-only (sock_linux.go); other systems keep
// net.Listen.
package sock

import (
	"errors"
	"net/netip"
	"strconv"
	"strings"
)

var errNotLiteral = errors.New("not an IP literal with a port (there is no resolver: write 127.0.0.1:PORT, [::1]:PORT or :PORT)")

// parseAddr parses "host:port": host an IPv4 literal, a bracketed IPv6
// literal, or empty for every interface (as [::]); port a decimal
// number, 0 asking for any free port. An IPv4-mapped IPv6 address is
// its IPv4 address, as net takes it. Zones are refused: binding one
// needs the interface table, which is package net's.
func parseAddr(s string) (netip.AddrPort, error) {
	if strings.HasPrefix(s, ":") {
		s = "[::]" + s
	}
	ap, err := netip.ParseAddrPort(s)
	switch {
	case err != nil:
		return netip.AddrPort{}, errNotLiteral
	case ap.Addr().Zone() != "":
		return netip.AddrPort{}, errors.New("IPv6 zone in " + strconv.Quote(s) + " is not supported")
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}
