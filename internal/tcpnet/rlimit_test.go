//go:build unix

package tcpnet

import (
	"errors"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// New dials one socket pair per link. When the process runs out of
// file descriptors partway through, New must return the error, not
// panic, and release every socket and reader goroutine it started.
func TestNewFailsCleanlyWithoutDescriptors(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	low := lim
	low.Cur = 48 // a dim-4 mesh needs 96 sockets for its links alone
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	nw, err := New(Config{Dim: 4})
	if rerr := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		nw.Close()
		t.Fatal("New built a dim-4 mesh within 48 descriptors")
	}
	if !errors.Is(err, syscall.EMFILE) {
		t.Errorf("New: got %v, want too many open files", err)
	}
	// Reader and accept goroutines exit once their sockets close; give
	// the scheduler a moment to retire them.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed New, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
