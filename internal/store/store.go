// Package store is the durability layer under the streaming collector: an
// append-only write-ahead log of budget charges, report batches and epoch
// rotations, plus periodic checksummed snapshots of per-tenant state
// (sealed epoch histograms, epoch clock, accountant spend, user bindings
// and the task spec). Together they make a collector restart — crash,
// kill -9 or rolling deploy — a replay instead of a privacy-budget reset:
// recovery loads the newest intact snapshot and replays the WAL tail over
// it, so ε spend is monotone across any crash point and recovered epoch
// state matches an uninterrupted run.
//
// Durability model: every accepted record is written to the kernel (one
// write(2)) before the request is acknowledged, so process death never
// loses acked state; the configurable fsync policy (SyncAlways,
// SyncInterval, SyncOS) chooses how much acked state a whole-machine
// power loss may cost. Torn or corrupt WAL tails are detected by
// per-record CRCs and truncated on recovery; snapshots are written to a
// temp file and atomically renamed, and recovery falls back to the
// previous snapshot when the newest fails verification.
//
// Fault injection for tests lives in Flaky, an FS wrapper that injects
// write errors, torn writes and latency under the real store logic.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wirebin"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy int

// Fsync policies. All policies write every record to the kernel before
// the append returns; they differ only in when fsync(2) runs.
const (
	// SyncInterval (the default) fsyncs the WAL on a background timer
	// (Options.SyncEvery). A machine crash can lose up to one interval of
	// acked records; a process crash loses nothing.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append — no acked record is ever
	// lost, at a large throughput cost.
	SyncAlways
	// SyncOS never fsyncs explicitly; the OS flushes on its own schedule.
	SyncOS
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOS:
		return "os"
	}
	return "interval"
}

// ParseSyncPolicy parses a policy name: "interval", "always", "os"
// (alias "never").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "os", "never":
		return SyncOS, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q", s)
}

// Options configures a store.
type Options struct {
	// FS is the filesystem; nil selects the real one. Tests wrap it in
	// Flaky to inject faults.
	FS FS
	// Sync is the WAL fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// MaxSegmentBytes rolls the WAL to a new segment beyond this size
	// (default 4MB).
	MaxSegmentBytes int64
	// KeepSnapshots is how many verified snapshots to retain (default 2:
	// the current one plus one fallback).
	KeepSnapshots int
}

// segment is one WAL file.
type segment struct {
	firstLSN uint64
	path     string
	size     int64
}

// walBatch is one group-commit unit: frames from concurrent appends that
// land on disk with a single write syscall. Appenders enqueue their frame
// and wait; the first of them to find no flush in flight becomes the
// leader and writes the whole batch. The last appender to read the
// outcome hands the batch, buffer and all, back for reuse.
type walBatch struct {
	buf     []byte
	n       int // LSNs framed onto the batch (for metrics)
	waiters int // appenders that have not read the outcome yet
	flushed bool
	err     error
}

// Store is a durable WAL + snapshot store rooted at one directory. It is
// safe for concurrent use; appends group-commit — concurrent appends
// coalesce into one write syscall, and no append returns before its own
// frame reached the kernel.
type Store struct {
	dir  string
	fs   FS
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond // flush/roll coordination, tied to mu
	loaded    bool
	closed    bool
	f         File // current segment, nil after a write failure (next append rolls)
	curSize   int64
	nextLSN   uint64
	segs      []segment
	free      []*walBatch // settled batches kept for reuse (≥2 so a batch opening mid-flush reuses too)
	pendBatch *walBatch
	flushing  bool
	lastErr   error

	snapMu   sync.Mutex // serializes snapshot writes and GC
	snapLSN  uint64
	snapTime time.Time

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open prepares a store over dir (created if missing). Call Load before
// appending: it scans existing state, truncates any torn WAL tail and
// positions the log for new appends.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = OS{}
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 4 << 20
	}
	if opts.KeepSnapshots <= 0 {
		opts.KeepSnapshots = 2
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fs: opts.FS, opts: opts, nextLSN: 1}
	s.cond = sync.NewCond(&s.mu)
	if opts.Sync == SyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop(s.stopSync)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func segPath(dir string, firstLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.log", firstLSN))
}

func snapPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", lsn))
}

// Recovery is what Load found on disk: the newest verifiable snapshot
// (nil when none) and every intact WAL record, in LSN order. Torn
// reports whether a torn or corrupt record was found and truncated;
// Warnings carries human-readable notes (corrupt snapshots skipped,
// segments dropped).
type Recovery struct {
	// Snapshot is the newest snapshot that verified, nil if none.
	Snapshot *Snapshot
	// Records are the intact WAL records, LSN ascending. An ingest batch
	// is one RecIngestBatch record holding its frame bytes until replay
	// decodes them.
	Records []Record
	// Torn reports whether a torn tail was truncated somewhere.
	Torn bool
	// Warnings describes anything skipped or repaired.
	Warnings []string
}

// Load scans the store directory: picks the newest snapshot that passes
// verification, reads every intact WAL record, truncates torn tails in
// place and opens the log for appending. It must be called exactly once,
// before any append.
func (s *Store) Load() (*Recovery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loaded {
		return nil, errors.New("store: Load called twice")
	}
	if s.closed {
		return nil, ErrClosed
	}
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{}
	var snapLSNs []uint64
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			lsnStr := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
			lsn, err := strconv.ParseUint(lsnStr, 10, 64)
			if err != nil {
				rec.Warnings = append(rec.Warnings, "ignoring unparseable WAL name "+name)
				continue
			}
			s.segs = append(s.segs, segment{firstLSN: lsn, path: filepath.Join(s.dir, name)})
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			lsnStr := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
			lsn, err := strconv.ParseUint(lsnStr, 10, 64)
			if err != nil {
				rec.Warnings = append(rec.Warnings, "ignoring unparseable snapshot name "+name)
				continue
			}
			snapLSNs = append(snapLSNs, lsn)
		}
	}
	// Newest verifiable snapshot wins; corrupt ones (bit rot, injected
	// faults) are skipped with a warning, falling back to the previous.
	for i := len(snapLSNs) - 1; i >= 0; i-- {
		snap, err := readSnapshotFile(s.fs, snapPath(s.dir, snapLSNs[i]))
		if err != nil {
			rec.Warnings = append(rec.Warnings,
				fmt.Sprintf("snapshot at LSN %d failed verification (%v); falling back", snapLSNs[i], err))
			continue
		}
		rec.Snapshot = snap
		s.snapLSN = snap.LSN
		break
	}
	// Replay every segment in order, truncating at the first torn or
	// corrupt record of each. Later segments still replay: their records
	// were intact on disk and applying them is strictly better than
	// discarding them.
	s.nextLSN = 1
	keep := s.segs[:0]
	for i := range s.segs {
		seg := &s.segs[i]
		good, next, torn, err := readSegment(s.fs, seg.path, func(r *Record) {
			rec.Records = append(rec.Records, *r)
		})
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", seg.path, err)
		}
		if torn {
			rec.Torn = true
			if good < int64(walHeaderSize) {
				// The header itself is torn: the segment carries nothing.
				// Remove the file entirely rather than truncating to zero —
				// a zero-byte entry left in segs would collide with the
				// next roll at the same firstLSN (duplicate segs entries
				// sharing one path), and gc would then unlink the live
				// segment out from under the log.
				rec.Warnings = append(rec.Warnings,
					fmt.Sprintf("removing %s: torn segment header", filepath.Base(seg.path)))
				if err := s.fs.Remove(seg.path); err != nil {
					return nil, fmt.Errorf("store: removing %s: %w", seg.path, err)
				}
				continue
			}
			rec.Warnings = append(rec.Warnings,
				fmt.Sprintf("truncated torn tail of %s at byte %d", filepath.Base(seg.path), good))
			if err := s.fs.Truncate(seg.path, good); err != nil {
				return nil, fmt.Errorf("store: truncating %s: %w", seg.path, err)
			}
		}
		seg.size = good
		if next > s.nextLSN {
			s.nextLSN = next
		}
		keep = append(keep, *seg)
	}
	s.segs = keep
	// Open the last segment for appending (or start fresh).
	if n := len(s.segs); n > 0 && s.segs[n-1].size >= int64(walHeaderSize) {
		f, err := s.fs.OpenAppend(s.segs[n-1].path)
		if err != nil {
			return nil, err
		}
		s.f = f
		s.curSize = s.segs[n-1].size
	}
	s.loaded = true
	return rec, nil
}

// roll starts a new segment at nextLSN. Caller holds s.mu.
func (s *Store) roll() error {
	if s.f != nil {
		if s.opts.Sync != SyncOS {
			_ = s.f.Sync()
		}
		_ = s.f.Close()
		s.f = nil
	}
	path := segPath(s.dir, s.nextLSN)
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return err
	}
	hdr := append([]byte(walMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], s.nextLSN)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(path)
		return err
	}
	s.f = f
	s.curSize = int64(len(hdr))
	s.segs = append(s.segs, segment{firstLSN: s.nextLSN, path: path, size: s.curSize})
	return nil
}

// append frames one record, enqueues it on the open group-commit batch
// and returns its LSN once the batch is on disk. On write failure the
// whole batch fails (callers refund), the current segment is abandoned (a
// later append rolls to a fresh one past any torn bytes) and the store
// reports unhealthy until a subsequent append succeeds.
func (s *Store) append(r *Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.openBatch()
	if err != nil {
		return 0, err
	}
	off := len(b.buf)
	b.buf = append(b.buf, make([]byte, frameHeaderSize)...)
	b.buf = encodeRecord(b.buf, r)
	payload := b.buf[off+frameHeaderSize:]
	binary.LittleEndian.PutUint32(b.buf[off:off+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b.buf[off+4:off+8], crc32.Checksum(payload, castagnoli))
	return s.commitBatch(b, 1)
}

// openBatch ensures a usable segment and returns the open group-commit
// batch (creating one when none is pending). Caller holds s.mu. Rolling
// is only safe while no batch is open or in flight — pending frames
// target the current segment — so a dead segment (s.f == nil) waits for
// the flush to settle before rolling, and a size overrun during an open
// batch is tolerated instead of rolled mid-batch.
func (s *Store) openBatch() (*walBatch, error) {
	if !s.loaded {
		return nil, errors.New("store: append before Load")
	}
	if s.closed {
		return nil, ErrClosed
	}
	for s.f == nil && (s.pendBatch != nil || s.flushing) {
		s.cond.Wait()
		if s.closed {
			return nil, ErrClosed
		}
	}
	if s.f == nil || (s.curSize >= s.opts.MaxSegmentBytes && s.pendBatch == nil && !s.flushing) {
		if err := s.roll(); err != nil {
			s.fail(err)
			return nil, err
		}
	}
	b := s.pendBatch
	if b == nil {
		if n := len(s.free); n > 0 {
			b = s.free[n-1]
			s.free = s.free[:n-1]
			*b = walBatch{buf: b.buf[:0]}
		} else {
			b = &walBatch{}
		}
		s.pendBatch = b
	}
	return b, nil
}

// commitBatch assigns n contiguous LSNs to the frames just enqueued and
// blocks until their batch is flushed, leading the flush when no one else
// is. Caller holds s.mu.
//
// Close does not abandon an in-flight flush: if a leader is already
// writing this batch, every waiter blocks for the real outcome — frames
// that land durably will replay on recovery, so reporting ErrClosed for
// them would make callers refund charges for records that survive (a
// double-apply after restart). Only a batch no leader ever picked up is
// discarded at close; its frames never reached the disk, so ErrClosed is
// then the truth.
func (s *Store) commitBatch(b *walBatch, n int) (uint64, error) {
	first := s.nextLSN
	s.nextLSN += uint64(n)
	b.n += n
	b.waiters++
	for !b.flushed {
		if s.closed {
			if s.pendBatch == b {
				// No leader will take this batch after close: discard it
				// so its records are consistently non-durable.
				s.pendBatch = nil
				b.flushed = true
				b.err = ErrClosed
				s.cond.Broadcast()
				break
			}
			// A leader is mid-flush on this batch; wait for its outcome.
			s.cond.Wait()
			continue
		}
		if !s.flushing && s.pendBatch == b {
			s.flushBatch(b)
		} else {
			s.cond.Wait()
		}
	}
	err := b.err
	if b.waiters--; b.waiters == 0 && len(s.free) < 4 {
		s.free = append(s.free, b)
	}
	if err != nil {
		return 0, err
	}
	return first, nil
}

// flushBatch writes one batch with a single write syscall (plus fsync
// under SyncAlways). Caller holds s.mu; the lock is released for the
// write itself — the flushing flag keeps rolls and other flushes out, so
// s.f cannot change underneath the writer.
func (s *Store) flushBatch(b *walBatch) {
	s.pendBatch = nil
	f := s.f
	if f == nil {
		// The segment died under an earlier batch; fail this one too so
		// its callers can refund. The next append rolls a fresh segment.
		b.flushed = true
		if b.err = s.lastErr; b.err == nil {
			b.err = errors.New("store: wal segment unavailable")
		}
		s.cond.Broadcast()
		return
	}
	s.flushing = true
	s.mu.Unlock()
	_, err := f.Write(b.buf)
	if err == nil && s.opts.Sync == SyncAlways {
		start := time.Now()
		err = f.Sync()
		observeFsync(start)
	}
	s.mu.Lock()
	s.flushing = false
	if err != nil {
		// A partial write may have left CRC-intact prefix frames of the
		// failed batch on disk; recovery would replay them even though
		// every caller was told the batch failed (and refunded, and will
		// retry). Cut the tail back to the pre-batch size so the failed
		// batch leaves no trace — best effort: if the truncate fails too,
		// the segment is abandoned anyway and the risk is confined to the
		// torn tail recovery already handles.
		if n := len(s.segs); n > 0 {
			_ = s.fs.Truncate(s.segs[n-1].path, s.curSize)
		}
		// The segment is now suspect; abandon it so later appends land in
		// a fresh segment and recovery truncates only this one.
		s.fail(err)
	} else {
		s.curSize += int64(len(b.buf))
		s.segs[len(s.segs)-1].size = s.curSize
		s.lastErr = nil
		metAppends.Add(uint64(b.n))
		metAppendBytes.Add(uint64(len(b.buf)))
		metBatchRecords.Observe(float64(b.n))
	}
	b.flushed = true
	b.err = err
	s.cond.Broadcast()
}

// fail records a store error and abandons the current segment. Caller
// holds s.mu.
func (s *Store) fail(err error) {
	s.lastErr = err
	metAppendFailures.Inc()
	slog.Warn("wal degraded: segment abandoned", "dir", s.dir, "err", err)
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
}

// IngestEntry is one report in a batched WAL append: the wire's entry
// type, which stream.BatchEntry aliases too.
type IngestEntry = wirebin.Entry

// batchEncoder frames ingest batches as WAL records outside the store
// lock: enc encodes each frame, buf collects the framed records.
type batchEncoder struct {
	enc wirebin.Encoder
	buf []byte
}

// encoderPool recycles batchEncoders; the steady-state append allocates
// nothing.
var encoderPool = sync.Pool{New: func() any { return new(batchEncoder) }}

// frame appends entries to e.buf as RecIngestBatch records — one frame
// when they fit its limits, split in halves until each part fits
// otherwise.
func (e *batchEncoder) frame(tenant string, entries []IngestEntry) error {
	fr, err := e.enc.Encode(tenant, 0, entries)
	if errors.Is(err, wirebin.ErrFrameTooLarge) && len(entries) > 1 {
		half := len(entries) / 2
		if err := e.frame(tenant, entries[:half]); err != nil {
			return err
		}
		return e.frame(tenant, entries[half:])
	}
	if err != nil {
		return err
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(fr)))
	e.buf = append(e.buf, fr[len(fr)-4:]...) // the frame's CRC trailer, see recordCRC
	e.buf = append(e.buf, fr...)
	return nil
}

// AppendIngestBatch logs accepted reports as one RecIngestBatch record —
// a wirebin frame, encoded outside the store lock — and returns the LSN
// of the first entry once it is on disk; entry i gets LSN first+i. A
// batch past one frame's limits becomes several contiguous records in
// the same group commit. On failure none of the entries are durable —
// callers roll back all of them.
func (s *Store) AppendIngestBatch(tenant string, entries []IngestEntry) (uint64, error) {
	if len(entries) == 0 {
		return 0, errors.New("store: empty append batch")
	}
	e := encoderPool.Get().(*batchEncoder)
	defer func() {
		if cap(e.buf) <= wirebin.MaxFrameBytes { // one giant batch does not pin its buffer
			encoderPool.Put(e)
		}
	}()
	e.buf = e.buf[:0]
	if err := e.frame(tenant, entries); err != nil {
		return 0, fmt.Errorf("store: encoding ingest batch: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.openBatch()
	if err != nil {
		return 0, err
	}
	b.buf = append(b.buf, e.buf...)
	return s.commitBatch(b, len(entries))
}

// AppendRotate logs an epoch seal (seq is the sealed-epoch counter after
// the rotation) and returns its LSN; the tenant's next live epoch starts
// at LSN+1.
func (s *Store) AppendRotate(tenant string, seq uint64) (uint64, error) {
	return s.append(&Record{Type: RecRotate, Tenant: tenant, Seq: seq})
}

// AppendJoin logs a user-group assignment and returns its LSN.
func (s *Store) AppendJoin(tenant, user string, group int) (uint64, error) {
	return s.append(&Record{Type: RecJoin, Tenant: tenant, User: user, Group: group})
}

// AppendTenantCreate logs a tenant registration with its task-spec JSON
// and returns its LSN.
func (s *Store) AppendTenantCreate(tenant string, spec []byte) (uint64, error) {
	return s.append(&Record{Type: RecTenantCreate, Tenant: tenant, Spec: spec})
}

// AppendTenantDelete logs a tenant deletion and returns its LSN.
func (s *Store) AppendTenantDelete(tenant string) (uint64, error) {
	return s.append(&Record{Type: RecTenantDelete, Tenant: tenant})
}

// AppendMergeDelta logs one node's sealed-epoch delta accepted by a
// coordinator and returns its LSN. frame is the raw CRC-sealed delta
// frame exactly as received; replay re-verifies and re-merges it, so a
// recovered coordinator reconstructs in-flight epochs bit-identically.
func (s *Store) AppendMergeDelta(tenant, node string, epoch uint64, frame []byte) (uint64, error) {
	return s.append(&Record{Type: RecMergeDelta, Tenant: tenant, User: node, Seq: epoch, Spec: frame})
}

// NextLSN returns the LSN the next append will receive. Reading it while
// holding the same locks that order a tenant's appends yields a
// consistent snapshot cut position.
func (s *Store) NextLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN
}

// WriteSnapshot durably publishes snap: encode, write to a temp file,
// fsync, atomically rename into place, fsync the directory, then garbage-
// collect snapshots and WAL segments the new snapshot obsoletes.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if !s.loaded {
		s.mu.Unlock()
		return errors.New("store: snapshot before Load")
	}
	s.mu.Unlock()
	b := encodeSnapshot(snap)
	final := snapPath(s.dir, snap.LSN)
	tmp := final + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	s.snapLSN = snap.LSN
	s.snapTime = time.Now()
	s.mu.Unlock()
	metSnapshots.Inc()
	slog.Debug("snapshot published", "dir", s.dir, "lsn", snap.LSN, "bytes", len(b))
	s.gc(snap)
	return nil
}

// gc removes snapshots beyond the retention count and WAL segments no
// surviving snapshot needs. Caller holds s.snapMu.
func (s *Store) gc(latest *Snapshot) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var snaps []string
	for _, name := range names {
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			snaps = append(snaps, name)
		}
	}
	for i := 0; i+s.opts.KeepSnapshots < len(snaps); i++ {
		_ = s.fs.Remove(filepath.Join(s.dir, snaps[i]))
	}
	// A segment is garbage when the *next* segment already starts at or
	// before the oldest LSN the latest snapshot replays from — then every
	// record the snapshot needs lives in later segments.
	minNeed := latest.minStartLSN()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.segs) > 1 && s.segs[1].firstLSN <= minNeed {
		_ = s.fs.Remove(s.segs[0].path)
		s.segs = s.segs[1:]
	}
}

// Health summarizes store state for monitoring.
type Health struct {
	// Healthy is false after an append or sync failure until a later
	// append succeeds.
	Healthy bool
	// LastErr is the most recent failure, empty when healthy.
	LastErr string
	// LSN is the next log sequence number.
	LSN uint64
	// Segments is the number of live WAL segments.
	Segments int
	// WALBytes is the total size of live WAL segments.
	WALBytes int64
	// SnapshotLSN is the cut position of the newest snapshot (0 = none).
	SnapshotLSN uint64
	// LastSnapshot is when the newest snapshot was written by this
	// process (zero when none yet — e.g. right after recovery).
	LastSnapshot time.Time
	// Dir is the store directory.
	Dir string
}

// Health reports current store health.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Healthy:      s.lastErr == nil && !s.closed,
		LSN:          s.nextLSN,
		Segments:     len(s.segs),
		SnapshotLSN:  s.snapLSN,
		LastSnapshot: s.snapTime,
		Dir:          s.dir,
	}
	if s.lastErr != nil {
		h.LastErr = s.lastErr.Error()
	}
	for i := range s.segs {
		h.WALBytes += s.segs[i].size
	}
	return h
}

// syncLoop is the SyncInterval background fsync.
func (s *Store) syncLoop(stop <-chan struct{}) {
	defer close(s.syncDone)
	tick := time.NewTicker(s.opts.SyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.mu.Lock()
			if s.f != nil {
				start := time.Now()
				err := s.f.Sync()
				observeFsync(start)
				if err != nil {
					s.fail(err)
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close stops the background fsync, flushes and closes the WAL. The
// store is unusable afterwards; appends blocked on an unflushed batch
// return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop := s.stopSync
	s.stopSync = nil
	s.cond.Broadcast() // wake appenders so they observe closed
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.syncDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.flushing { // let an in-flight group commit finish cleanly
		s.cond.Wait()
	}
	var err error
	if s.f != nil {
		if s.opts.Sync != SyncOS {
			err = s.f.Sync()
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}
