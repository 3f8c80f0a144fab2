//go:build !linux

package monitor

import "io"

// sessionIO returns the reader and writer a session goes through: the
// conn itself off Linux (see sessionio_linux.go for the raw path).
func sessionIO(conn Conn) (io.Reader, io.Writer) { return conn, conn }
