// Package lockfix is the lockorder analyzer's fixture: a miniature WAL
// shape (mutex, network connection) with clean, violating, propagated,
// and suppressed critical sections.
package lockfix

import (
	"io"
	"net"
	"sync"
)

type Log struct {
	mu   sync.Mutex
	conn net.Conn
	c    Conn
	sock *Socket
}

// Conn stands in for monitor.Conn: a connection declared without
// package net, listed in the fixture's NetTypes.
type Conn interface{ io.Writer }

// Socket stands in for the daemon's socket type (sock.Conn), also
// listed in NetTypes.
type Socket struct{}

func (*Socket) Write(p []byte) (int, error) { return len(p), nil }

// CleanConn writes through both after releasing the lock.
func (l *Log) CleanConn() {
	l.mu.Lock()
	l.mu.Unlock()
	l.c.Write(nil)
	l.sock.Write(nil)
}

func (l *Log) ConnUnderLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.c.Write(nil) // want `lockorder: network I/O \(lockfix\.Conn\.Write\) under .*Log\.mu`
}

func (l *Log) SocketUnderLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sock.Write(nil) // want `lockorder: network I/O \(lockfix\.Socket\.Write\) under .*Log\.mu`
}

func (l *Log) reply() { l.sock.Write(nil) }

func (l *Log) ReplyUnderLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reply() // want `lockorder: calls .*reply under .*Log\.mu .*: calls lockfix\.Socket\.Write`
}

// CleanNet is the correct pattern: release the lock before network I/O.
func (l *Log) CleanNet() {
	l.mu.Lock()
	l.mu.Unlock()
	l.conn.Write(nil)
}

func (l *Log) Reacquire() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mu.Lock() // want `lockorder: re-acquires .*Log\.mu, already held since`
}

func (l *Log) NetUnderLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conn.Write(nil) // want `lockorder: network I/O \(net\.Write\) under .*Log\.mu`
}

func (l *Log) lockedHelper() {
	l.mu.Lock()
	defer l.mu.Unlock()
}

func (l *Log) CallsLocked() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lockedHelper() // want `lockorder: calls .*lockedHelper, which may re-acquire .*Log\.mu`
}

func (l *Log) SuppressedRelock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lockedHelper() //rtic:lockok fixture: pretend the helper has a TryLock fast path
}

// GoLiteral's goroutine takes the lock itself: its body is a region of
// its own, checked as a function's is.
func (l *Log) GoLiteral() {
	go func() {
		l.mu.Lock()
		l.sock.Write(nil) // want `lockorder: network I/O \(lockfix\.Socket\.Write\) under .*Log\.mu`
		l.mu.Unlock()
	}()
}

// GoUnderLock starts a goroutine while holding the lock; the goroutine
// does not hold it.
func (l *Log) GoUnderLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	go func() { l.sock.Write(nil) }()
}
