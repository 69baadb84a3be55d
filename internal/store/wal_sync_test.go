package store

import (
	"errors"
	"os"
	"testing"
	"time"
)

// TestWALSyncErrorIsSticky invalidates the open WAL segment under the
// batched fsync loop, so its next fsync fails. That failure must not be
// swallowed: the next mutation and Close both return it, and the failed
// mutation leaves the store unchanged.
func TestWALSyncErrorIsSticky(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(genTrajectory("a", 1, 20)); err != nil {
		t.Fatal(err)
	}
	p := s.pers
	p.mu.Lock()
	p.f.Close()
	p.needSync = true
	p.mu.Unlock()

	var syncErr error
	for deadline := time.Now().Add(5 * time.Second); syncErr == nil && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		p.mu.Lock()
		syncErr = p.syncErr
		p.mu.Unlock()
	}
	if syncErr == nil {
		t.Fatal("the batched fsync of an invalidated segment reported no error")
	}
	if !errors.Is(syncErr, os.ErrClosed) {
		t.Fatalf("sync error %v does not wrap the segment's failure", syncErr)
	}

	if _, err := s.Add(genTrajectory("b", 2, 20)); !errors.Is(err, syncErr) {
		t.Errorf("Add after a failed fsync: err=%v, want %v", err, syncErr)
	}
	if _, ok := s.Get("b"); ok {
		t.Error("a mutation rejected by the failed WAL is visible")
	}
	if err := s.Close(); !errors.Is(err, syncErr) {
		t.Errorf("Close after a failed fsync: err=%v, want %v", err, syncErr)
	}
}
