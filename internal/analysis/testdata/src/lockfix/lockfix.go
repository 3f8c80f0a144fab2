// Package lockfix is the lockorder analyzer's fixture: a miniature WAL
// shape (mutex, network connection) with clean, violating, propagated,
// and suppressed critical sections.
package lockfix

import (
	"net"
	"sync"
)

type Log struct {
	mu   sync.Mutex
	conn net.Conn
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
