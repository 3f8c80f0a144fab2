package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestListenAddressesAreIPLiterals: -listen and -metrics take IP
// literals with a port, report the port bound for port 0, and refuse a
// host name with an error naming the flag, since there is no resolver.
func TestListenAddressesAreIPLiterals(t *testing.T) {
	spec := writeSpec(t, t.TempDir(), "hr.rtic", hrSpec)
	for _, tc := range []struct{ listen, metrics, flag string }{
		{"localhost:0", "127.0.0.1:0", "-listen localhost:0"},
		{"127.0.0.1:0", "localhost:0", "-metrics localhost:0"},
	} {
		d, err := start(options{specPath: spec, listen: tc.listen, metricsAddr: tc.metrics})
		if err == nil {
			d.shutdown()
			t.Fatalf("-listen %s -metrics %s started", tc.listen, tc.metrics)
		}
		if !strings.HasPrefix(err.Error(), tc.flag+": ") || !strings.Contains(err.Error(), "no resolver") {
			t.Errorf("error %q, want it to name %q and the missing resolver", err, tc.flag)
		}
	}

	// An IPv6 literal and an empty host (every interface).
	listen := "[::1]:0"
	if probe, err := net.Listen("tcp", listen); err != nil {
		listen = "127.0.0.1:0" // no IPv6 loopback here
	} else {
		probe.Close()
	}
	d, err := start(options{specPath: spec, listen: listen, metricsAddr: ":0"})
	if err != nil {
		t.Fatal(err)
	}
	host := strings.TrimSuffix(listen, "0")
	if a := d.l.Addr().String(); !strings.HasPrefix(a, host) || a == listen {
		t.Errorf("-listen %s reports %s", listen, a)
	}
	c := dialLine(t, d)
	if got := c.commit(t, "@1 +fire(7)"); len(got) != 1 || got[0] != "ok 0" {
		t.Fatalf("replies %q", got)
	}
	ha := d.hl.Addr().String()
	port := ha[strings.LastIndexByte(ha, ':')+1:]
	if (ha != "[::]:"+port && ha != "0.0.0.0:"+port) || port == "0" {
		t.Errorf("-metrics :0 reports %s", ha)
	}
	if body := httpGet(t, "http://127.0.0.1:"+port+"/healthz"); !strings.Contains(body, `"states":1`) {
		t.Errorf("/healthz over 127.0.0.1: %s", body)
	}

	// Shutdown closes the listener, which unblocks the server's accept.
	if err := d.shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the line server still accepting after shutdown")
	}
}
