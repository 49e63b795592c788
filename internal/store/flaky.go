package store

import (
	"io"
	"sync"
	"time"
)

// Flaky wraps an FS and injects faults into its write path: scheduled
// write errors, torn writes (half the bytes land before the error — the
// on-disk tail a power loss mid-write leaves behind), sync failures and
// per-write latency. It drives the fault-injection harness: crash-and-
// recover tests run the real store logic over a Flaky-wrapped filesystem
// and assert that recovery truncates exactly the injected damage.
//
// The zero schedule injects nothing; arm faults with FailWrites /
// FailSyncs. Flaky is safe for concurrent use.
type Flaky struct {
	inner FS

	mu         sync.Mutex
	writeLeft  int  // inject on the write that makes this 0 (-1 = disarmed)
	syncLeft   int  // same, for Sync
	torn       bool // failing write lands some of its bytes first
	tornBytes  int  // how many (0 = half)
	persistErr bool // keep failing after the scheduled fault until Heal
	latency    time.Duration

	writes   int
	syncs    int
	injected int
}

// errInjected is the fault Flaky injects.
type errInjected struct{}

func (errInjected) Error() string { return "store: injected fault" }

// ErrInjected is the error injected writes and syncs return.
var ErrInjected error = errInjected{}

// NewFlaky wraps fs (nil selects the real filesystem) with a disarmed
// fault schedule.
func NewFlaky(fs FS) *Flaky {
	if fs == nil {
		fs = OS{}
	}
	return &Flaky{inner: fs, writeLeft: -1, syncLeft: -1}
}

// FailWrites arms the schedule: the nth write from now (1-based) fails.
// With torn, the failing write first lands half of its bytes — a torn
// tail for recovery to truncate. With persist, every later write fails
// too until Heal is called (a store that stays down, not one bad sector).
func (f *Flaky) FailWrites(n int, torn, persist bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeLeft = n
	f.torn = torn
	f.persistErr = persist
}

// TearAt makes a torn write land its first k bytes instead of half of
// them (k ≤ 0 restores half).
func (f *Flaky) TearAt(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornBytes = k
}

// FailSyncs arms the nth Sync from now (1-based) to fail.
func (f *Flaky) FailSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncLeft = n
}

// Latency makes every write sleep d first — a slow disk for tests that
// need to observe a window (e.g. a server mid-recovery).
func (f *Flaky) Latency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// Heal disarms all scheduled and persistent faults.
func (f *Flaky) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeLeft, f.syncLeft = -1, -1
	f.torn, f.persistErr = false, false
	f.tornBytes = 0
	f.latency = 0
}

// Stats returns totals: writes seen, syncs seen, faults injected.
func (f *Flaky) Stats() (writes, syncs, injected int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs, f.injected
}

// checkWrite consumes one write slot of an n-byte write; it returns the
// sleep to apply, whether to inject a fault, and how many bytes land
// before it (0 when the fault is not torn).
func (f *Flaky) checkWrite(n int) (lat time.Duration, inject bool, land int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	lat = f.latency
	if f.writeLeft > 0 {
		f.writeLeft--
		if f.writeLeft == 0 {
			inject = true
			if f.torn {
				land = n / 2
				if f.tornBytes > 0 {
					land = min(f.tornBytes, n)
				}
			}
			f.injected++
			if !f.persistErr {
				f.writeLeft = -1
			}
		}
	} else if f.writeLeft == 0 && f.persistErr {
		inject = true
		f.injected++
	}
	return lat, inject, land
}

func (f *Flaky) checkSync() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.syncLeft > 0 {
		f.syncLeft--
		if f.syncLeft == 0 {
			f.injected++
			f.syncLeft = -1
			return true
		}
	}
	return false
}

// MkdirAll implements FS.
func (f *Flaky) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

// Create implements FS.
func (f *Flaky) Create(name string) (File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: f, inner: file}, nil
}

// OpenAppend implements FS.
func (f *Flaky) OpenAppend(name string) (File, error) {
	file, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{f: f, inner: file}, nil
}

// Open implements FS.
func (f *Flaky) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }

// ReadDir implements FS.
func (f *Flaky) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// Rename implements FS.
func (f *Flaky) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }

// Remove implements FS.
func (f *Flaky) Remove(name string) error { return f.inner.Remove(name) }

// Truncate implements FS.
func (f *Flaky) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// SyncDir implements FS.
func (f *Flaky) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// flakyFile intercepts writes and syncs on one handle.
type flakyFile struct {
	f     *Flaky
	inner File
}

// Write implements File, applying the schedule: latency first, then
// either a clean write, a clean error, or a torn write (some of the bytes
// land, then the error).
func (ff *flakyFile) Write(p []byte) (int, error) {
	lat, inject, land := ff.f.checkWrite(len(p))
	if lat > 0 {
		time.Sleep(lat)
	}
	if !inject {
		return ff.inner.Write(p)
	}
	if land > 0 {
		n, err := ff.inner.Write(p[:land])
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	}
	return 0, ErrInjected
}

// Sync implements File.
func (ff *flakyFile) Sync() error {
	if ff.f.checkSync() {
		return ErrInjected
	}
	return ff.inner.Sync()
}

// Close implements File.
func (ff *flakyFile) Close() error { return ff.inner.Close() }
