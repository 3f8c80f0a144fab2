package sock

import (
	"net"
	"strings"
	"testing"
)

// TestParseAddrAsNet: every literal parses to the IP and port net reads
// from it, an IPv4-mapped one to its IPv4 address, and prints as net
// prints it.
func TestParseAddrAsNet(t *testing.T) {
	for _, in := range []string{
		"127.0.0.1:7411", "0.0.0.0:0", "255.255.255.255:65535",
		"[::1]:80", "[::]:0", "[0:0:0:0:0:0:0:1]:1", "[2001:DB8::1]:443",
		"[2001:db8:0:0:1:0:0:1]:1", "[1:0:0:2:0:0:0:3]:1", "[1::]:1",
		"[1:2:3:4:5:6:7:8]:1", "[::ffff:127.0.0.1]:9", "[::127.0.0.1]:9",
		"[fe80::1:2]:1",
	} {
		a, err := parseAddr(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		tcp, err := net.ResolveTCPAddr("tcp", in)
		if err != nil {
			t.Fatal(err)
		}
		if ip := a.Addr().As16(); string(ip[:]) != string(tcp.IP.To16()) || a.Addr().Is4() != (tcp.IP.To4() != nil) || int(a.Port()) != tcp.Port {
			t.Errorf("%s parsed as %s, net reads %s", in, a, tcp)
		}
		if a.String() != tcp.String() {
			t.Errorf("%s prints %s, net prints %s", in, a, tcp)
		}
	}
	if a, err := parseAddr(":80"); err != nil || a.String() != "[::]:80" {
		t.Errorf(":80 parsed as %s, %v; want every interface", a, err)
	}
}

// TestParseAddrRefuses: host names, missing or bad ports, malformed
// literals and zones are errors; a host name's error says there is no
// resolver.
func TestParseAddrRefuses(t *testing.T) {
	for _, in := range []string{
		"localhost:0", "example.com:80", "127.0.0.1", "[::1]", "127.0.0.1:",
		"127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:+1", "127.0.0.01:1",
		"1.2.3:1", "1.2.3.4.5:1", "256.0.0.1:1", "[1:2:3:4:5:6:7:8:9]:1",
		"[1::2::3]:1", "[:::]:1", "[12345::]:1", "[1.2.3.4::]:1",
		"[fe80::1%lo]:0", "::1:80", ":http", "[1.2.3.4]:80", ":",
	} {
		if a, err := parseAddr(in); err == nil {
			t.Errorf("%s parsed as %s", in, a)
		}
	}
	if _, err := parseAddr("localhost:0"); err == nil || !strings.Contains(err.Error(), "no resolver") {
		t.Errorf("localhost:0: %v", err)
	}
	if _, err := parseAddr("[fe80::1%lo]:0"); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Errorf("[fe80::1%%lo]:0: %v", err)
	}
}
