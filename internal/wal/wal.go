// Package wal gives the collector crash durability: an append-only,
// CRC-framed write-ahead log of accepted telemetry batches plus periodic
// full-state snapshots, so a restarted server reconstructs exactly the
// state it acknowledged before dying — the stdlib stand-in for the
// containerized data-management layer the deployed Meshtastic monitoring
// systems rely on to survive restart churn.
//
// # Layout
//
// A log lives in one directory:
//
//	wal-00000001.log   segment: "MWL1" header, then framed records
//	wal-00000002.log   ...
//	snapshot.dat       "MSN1" header, first uncovered segment index,
//	                   then an opaque snapshot payload
//
// Each record frame is
//
//	u32 payload length (LE) | u32 IEEE CRC-32 of payload | payload
//
// where the payload is a wire.Batch in the compact binary encoding —
// the WAL reuses the uplink codec, so one format change covers both.
//
// # Crash semantics
//
// Append writes the frame with one write(2) call and then syncs per the
// configured policy: SyncEveryBatch makes acknowledged = durable (the
// zero-acked-loss mode), SyncInterval bounds loss to one flush window,
// SyncNone leaves durability to segment rotation and shutdown.
//
// Under SyncEveryBatch concurrent appenders group-commit: the first
// waiter becomes the fsync leader while later appenders write their
// frames and wait on the same sync, so N concurrent batches cost one
// fsync instead of N. Each Append still returns only after its own
// frame is durable, so the acknowledged = durable contract is
// unchanged — the collector's shards share one appender without
// serialising on the disk. Open
// scans every segment, truncates a torn final record (a crash mid-write)
// and refuses corruption anywhere earlier. Checkpoint rotates to a fresh
// segment, writes the snapshot atomically (tmp + rename) and deletes the
// covered segments, so recovery cost stays proportional to the data
// since the last checkpoint, not deployment lifetime.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lorameshmon/internal/metrics"
	"lorameshmon/internal/wire"
)

const (
	segMagic      = "MWL1"
	snapMagic     = "MSN1"
	snapName      = "snapshot.dat"
	frameHeader   = 8       // u32 length + u32 crc
	maxFrameBytes = 1 << 24 // sanity bound; ingest bodies are capped at 1 MiB
)

// Errors the log reports.
var (
	// ErrSealed rejects appends after Seal/Close/Crash.
	ErrSealed = errors.New("wal: log sealed")
	// ErrCorrupt reports a CRC or framing failure before the final record
	// — data loss that truncating a torn tail cannot explain.
	ErrCorrupt = errors.New("wal: corrupt segment")
)

// SyncPolicy selects when appended frames are fsynced.
type SyncPolicy int

// Sync policies, orderd strongest first.
const (
	// SyncEveryBatch fsyncs before Append returns: an acknowledged batch
	// is durable, so kill -9 at any point loses zero acked data.
	SyncEveryBatch SyncPolicy = iota
	// SyncInterval fsyncs on a timer (Options.SyncEvery); a crash loses
	// at most one interval of acknowledged batches.
	SyncInterval
	// SyncNone never fsyncs on the append path; rotation, Checkpoint and
	// Seal still sync, bounding loss to the active segment.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "every-batch":
		return SyncEveryBatch, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval or off)", s)
}

// Options tunes a log.
type Options struct {
	// Sync is the fsync policy (default SyncEveryBatch).
	Sync SyncPolicy
	// SyncEvery is the flush cadence under SyncInterval (default 100 ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB).
	SegmentBytes int64
	// Metrics, when set, registers the log's self-observability families
	// (appends, bytes, fsyncs, checkpoints, replay duration, segments).
	Metrics *metrics.Registry
}

// ReplayStats summarises one recovery pass.
type ReplayStats struct {
	Batches   uint64        // complete records replayed
	Bytes     int64         // payload bytes replayed
	Truncated int64         // torn-tail bytes dropped by Open
	Duration  time.Duration // wall-clock replay time
}

// instruments are the log's optional self-observability handles.
type instruments struct {
	appends     *metrics.Counter
	bytes       *metrics.Counter
	fsyncs      *metrics.Counter
	checkpoints *metrics.Counter
	replay      *metrics.Gauge
}

// Log is an append-only batch log plus its snapshot, rooted in one
// directory. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options
	inst *instruments

	segments  []segmentRef // replayable segments, ascending index
	truncated int64        // torn bytes dropped at Open
	snapFirst uint64       // first segment index NOT covered by the snapshot
	hasSnap   bool

	nextIndex uint64 // index the next created segment gets
	active    *os.File
	activeLen int64 // bytes written to the active segment
	syncedLen int64 // bytes of the active segment known durable
	buf       []byte
	sealed    bool

	// Group-commit state. syncCond (on mu) wakes appenders waiting for
	// durability; syncing marks a leader fsync in flight with mu
	// released; activeGen increments every time a segment is closed, so
	// a waiter whose generation is behind knows its bytes were synced by
	// rotation/Seal before the close.
	syncCond  *sync.Cond
	syncing   bool
	activeGen uint64

	flushStop chan struct{}
	flushDone chan struct{}
}

type segmentRef struct {
	index uint64
	path  string
	size  int64 // valid bytes (post-truncation)
}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", index))
}

// Open prepares dir for recovery and appending: it loads the snapshot
// header, scans every segment, truncates a torn final record, removes
// segments already covered by the snapshot, and positions the log so the
// next Append starts a fresh segment.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	l.syncCond = sync.NewCond(&l.mu)
	if opts.Metrics != nil {
		l.inst = &instruments{
			appends: opts.Metrics.NewCounter("meshmon_wal_appends_total",
				"Batches appended to the write-ahead log."),
			bytes: opts.Metrics.NewCounter("meshmon_wal_bytes_total",
				"Frame bytes written to the write-ahead log."),
			fsyncs: opts.Metrics.NewCounter("meshmon_wal_fsyncs_total",
				"fsync calls issued by the write-ahead log."),
			checkpoints: opts.Metrics.NewCounter("meshmon_wal_checkpoints_total",
				"Snapshot checkpoints completed."),
			replay: opts.Metrics.NewGauge("meshmon_wal_replay_seconds",
				"Wall-clock duration of the last WAL replay."),
		}
		opts.Metrics.NewGaugeFunc("meshmon_wal_segments",
			"Live WAL segment files (replayable + active).",
			func() float64 { return float64(l.segmentCount()) })
	}

	if err := l.loadSnapshotHeader(); err != nil {
		return nil, err
	}
	if err := l.scanSegments(); err != nil {
		return nil, err
	}
	if l.opts.Sync == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop(l.flushStop)
	}
	return l, nil
}

// loadSnapshotHeader reads snapshot.dat's header, leaving the payload for
// Snapshot to stream during recovery.
func (l *Log) loadSnapshotHeader() error {
	f, err := os.Open(filepath.Join(l.dir, snapName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: open snapshot: %w", err)
	}
	defer f.Close()
	var hdr [len(snapMagic) + 8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("wal: snapshot header: %w", err)
	}
	if string(hdr[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	l.snapFirst = binary.LittleEndian.Uint64(hdr[len(snapMagic):])
	l.hasSnap = true
	return nil
}

// scanSegments validates every on-disk segment, truncating the newest
// one's torn tail and deleting segments the snapshot already covers.
func (l *Log) scanSegments() error {
	names, err := filepath.Glob(filepath.Join(l.dir, "wal-*.log"))
	if err != nil {
		return fmt.Errorf("wal: scan: %w", err)
	}
	type seg struct {
		index uint64
		path  string
	}
	var segs []seg
	for _, p := range names {
		var idx uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d.log", &idx); err != nil {
			continue // foreign file; leave it alone
		}
		segs = append(segs, seg{idx, p})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })

	l.nextIndex = l.snapFirst
	if l.nextIndex == 0 {
		l.nextIndex = 1
	}
	for i, s := range segs {
		if s.index >= l.nextIndex {
			l.nextIndex = s.index + 1
		}
		if s.index < l.snapFirst {
			// Covered by the snapshot; a crash between the snapshot rename
			// and the checkpoint's deletes left it behind.
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: drop covered segment: %w", err)
			}
			continue
		}
		valid, torn, err := scanSegment(s.path, nil)
		if err != nil {
			return err
		}
		if torn {
			if i != len(segs)-1 {
				return fmt.Errorf("%w: %s torn mid-log", ErrCorrupt, filepath.Base(s.path))
			}
			info, err := os.Stat(s.path)
			if err != nil {
				return fmt.Errorf("wal: scan: %w", err)
			}
			l.truncated += info.Size() - valid
			if err := os.Truncate(s.path, valid); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		l.segments = append(l.segments, segmentRef{index: s.index, path: s.path, size: valid})
	}
	return nil
}

// scanSegment walks one segment file. For every complete, CRC-valid
// frame it calls fn (when non-nil) with the payload; it returns the byte
// offset of the first torn/invalid frame (or the file size when clean)
// and whether a torn tail was found. A payload failing CRC is treated as
// torn — recovery keeps the valid prefix either way.
func scanSegment(path string, fn func(payload []byte) error) (valid int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: read segment: %w", err)
	}
	if len(data) == 0 {
		return 0, false, nil // crash between create and header write
	}
	if len(data) < len(segMagic) {
		return 0, true, nil
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, false, fmt.Errorf("%w: bad segment magic in %s", ErrCorrupt, filepath.Base(path))
	}
	off := int64(len(segMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, false, nil
		}
		if len(rest) < frameHeader {
			return off, true, nil
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if length > maxFrameBytes || int64(length) > int64(len(rest))-frameHeader {
			return off, true, nil
		}
		payload := rest[frameHeader : frameHeader+int64(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			return off, true, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, false, err
			}
		}
		off += frameHeader + int64(length)
	}
}

// segmentCount reports live segment files for the scrape-time gauge.
func (l *Log) segmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.segments)
	if l.active != nil {
		n++
	}
	return n
}

// Truncated returns how many torn-tail bytes Open dropped.
func (l *Log) Truncated() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Snapshot returns a reader over the newest snapshot payload, or
// ok=false when no checkpoint has completed yet. The caller must Close
// the reader.
func (l *Log) Snapshot() (r io.ReadCloser, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasSnap {
		return nil, false, nil
	}
	f, err := os.Open(filepath.Join(l.dir, snapName))
	if err != nil {
		return nil, false, fmt.Errorf("wal: open snapshot: %w", err)
	}
	if _, err := f.Seek(int64(len(snapMagic)+8), io.SeekStart); err != nil {
		f.Close()
		return nil, false, fmt.Errorf("wal: seek snapshot: %w", err)
	}
	return f, true, nil
}

// Replay streams every retained batch, oldest first, into fn. The
// segments replayed are exactly those not covered by the snapshot, so
// snapshot + replay reconstructs the full acknowledged history. Replay
// is meant to run once, after Open and before the first Append.
func (l *Log) Replay(fn func(wire.Batch) error) (ReplayStats, error) {
	l.mu.Lock()
	segs := append([]segmentRef(nil), l.segments...)
	truncated := l.truncated
	l.mu.Unlock()

	start := time.Now()
	stats := ReplayStats{Truncated: truncated}
	for _, s := range segs {
		_, torn, err := scanSegment(s.path, func(payload []byte) error {
			b, err := wire.DecodeLoggedBatch(payload)
			if err != nil {
				return fmt.Errorf("wal: replay %s: %w", filepath.Base(s.path), err)
			}
			if err := fn(b); err != nil {
				return err
			}
			stats.Batches++
			stats.Bytes += int64(len(payload))
			return nil
		})
		if err != nil {
			return stats, err
		}
		if torn {
			// Open truncated the tail; reappearing means the file changed
			// underneath us.
			return stats, fmt.Errorf("%w: %s torn after open", ErrCorrupt, filepath.Base(s.path))
		}
	}
	stats.Duration = time.Since(start)
	if l.inst != nil {
		l.inst.replay.Set(stats.Duration.Seconds())
	}
	return stats, nil
}

// Append frames and writes one batch, fsyncing per the sync policy. It
// returns only after the batch is as durable as the policy promises, so
// callers may acknowledge upstream on nil.
func (l *Log) Append(b wire.Batch) error {
	payload, err := wire.EncodeBatchBinary(b)
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return ErrSealed
	}
	frame := frameHeader + int64(len(payload))
	if l.active != nil && l.activeLen+frame > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
		// rotateLocked may have waited out an in-flight leader fsync with
		// mu released; the log can be sealed by the time it returns.
		if l.sealed {
			return ErrSealed
		}
	}
	if l.active == nil {
		if err := l.openSegmentLocked(); err != nil {
			return err
		}
	}
	l.buf = l.buf[:0]
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(len(payload)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.ChecksumIEEE(payload))
	l.buf = append(l.buf, payload...)
	if _, err := l.active.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.activeLen += frame
	if l.inst != nil {
		l.inst.appends.Inc()
		l.inst.bytes.Add(float64(frame))
	}
	if l.opts.Sync == SyncEveryBatch {
		return l.waitDurableLocked(l.activeGen, l.activeLen)
	}
	return nil
}

// waitDurableLocked blocks until the active segment is durable through
// offset off of generation gen, group-committing with concurrent
// appenders: the first waiter becomes the leader and fsyncs with mu
// released, everyone else waits on syncCond and is satisfied by the
// leader's sync (or by a later rotation/Seal, which syncs before
// closing and bumps activeGen). Returns ErrSealed when the bytes were
// torn away by Crash before reaching stable storage.
func (l *Log) waitDurableLocked(gen uint64, off int64) error {
	for {
		if gen < l.activeGen || (gen == l.activeGen && l.syncedLen >= off) {
			return nil // segments close only after a sync, except via Crash
		}
		if l.sealed {
			// Crash sealed the log with our frame still unsynced; the
			// truncate threw it away, so the caller must not ack it.
			return ErrSealed
		}
		if l.syncing {
			l.syncCond.Wait()
			continue
		}
		// Become the leader: capture the current tail so every frame
		// written before this point rides one fsync.
		l.syncing = true
		f := l.active
		tgen := l.activeGen
		target := l.activeLen
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.syncing = false
		if err == nil && tgen == l.activeGen && target > l.syncedLen {
			l.syncedLen = target
			if l.inst != nil {
				l.inst.fsyncs.Inc()
			}
		}
		l.syncCond.Broadcast()
		if err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
}

// openSegmentLocked creates the next segment and writes its header.
func (l *Log) openSegmentLocked() error {
	path := segPath(l.dir, l.nextIndex)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: new segment: %w", err)
	}
	l.active = f
	l.activeLen = int64(len(segMagic))
	l.syncedLen = 0
	l.nextIndex++
	return nil
}

// rotateLocked seals the active segment into the replayable list. It
// may release mu while waiting out an in-flight leader fsync, so
// callers must revalidate sealed/active state afterwards.
func (l *Log) rotateLocked() error {
	f := l.active
	if f == nil {
		return nil
	}
	// Never close a file a group-commit leader is fsyncing. Waiting
	// releases mu, so recheck: another goroutine may have rotated or
	// sealed meanwhile, in which case this rotation is already done.
	for l.syncing {
		l.syncCond.Wait()
	}
	if l.active != f {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	var idx uint64
	fmt.Sscanf(filepath.Base(path), "wal-%d.log", &idx) //nolint:errcheck // we named it
	l.segments = append(l.segments, segmentRef{index: idx, path: path, size: l.activeLen})
	l.active = nil
	l.activeLen = 0
	l.syncedLen = 0
	l.activeGen++ // closed fully synced: lagging waiters are durable
	l.syncCond.Broadcast()
	return nil
}

// syncLocked fsyncs the active segment.
func (l *Log) syncLocked() error {
	if l.active == nil || l.syncedLen == l.activeLen {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncedLen = l.activeLen
	if l.inst != nil {
		l.inst.fsyncs.Inc()
	}
	return nil
}

// Sync forces an fsync of the active segment regardless of policy. It
// rides the group-commit path, so the interval flusher coalesces with
// any concurrent SyncEveryBatch appenders instead of double-syncing.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil || l.syncedLen == l.activeLen {
		return nil
	}
	err := l.waitDurableLocked(l.activeGen, l.activeLen)
	if errors.Is(err, ErrSealed) {
		return nil // sealed mid-wait; Seal/Crash own durability now
	}
	return err
}

// flushLoop services SyncInterval. stop is passed in rather than read
// from the struct: stopFlusher nils the field before closing the
// channel, and re-reading it here could select on nil forever.
func (l *Log) flushLoop(stop <-chan struct{}) {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync() //nolint:errcheck // next Append or Seal surfaces it
		case <-stop:
			return
		}
	}
}

// Checkpoint rotates to a fresh segment, streams a snapshot through
// write (atomically: tmp + fsync + rename), and deletes the segments the
// snapshot now covers. Callers serialise Checkpoint against the state
// being snapshotted; the collector runs it under its ingest lock so the
// cut lands exactly on a batch boundary.
func (l *Log) Checkpoint(write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rotateLocked(); err != nil {
		return err
	}
	cut := l.nextIndex // first segment the snapshot does NOT cover

	tmp, err := os.CreateTemp(l.dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
	var hdr [len(snapMagic) + 8]byte
	copy(hdr[:], snapMagic)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], cut)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.snapFirst = cut
	l.hasSnap = true
	// The snapshot is durable; covered segments are garbage. A crash
	// mid-delete is safe — Open drops leftovers below snapFirst.
	for _, s := range l.segments {
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: checkpoint: %w", err)
		}
	}
	l.segments = l.segments[:0]
	if l.inst != nil {
		l.inst.checkpoints.Inc()
	}
	return nil
}

// Seal flushes, fsyncs and closes the log; further Appends fail with
// ErrSealed. Graceful shutdown seals after its final checkpoint.
func (l *Log) Seal() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return nil
	}
	for l.syncing { // let an in-flight leader fsync finish first
		l.syncCond.Wait()
	}
	if l.sealed {
		return nil
	}
	l.sealed = true
	defer l.syncCond.Broadcast() // wake waiters to observe the seal
	if l.active == nil {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	l.active = nil
	l.activeGen++ // closed fully synced: lagging waiters are durable
	return nil
}

// Close is Seal under the conventional name.
func (l *Log) Close() error { return l.Seal() }

// Crash simulates power loss for tests and the T7 experiment: whatever
// the OS has not been asked to fsync is torn away — the active segment
// is truncated back to its last synced offset and the log is sealed
// without flushing. After Crash, reopen the directory to recover.
func (l *Log) Crash() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return nil
	}
	for l.syncing { // a leader mid-fsync holds the file; let it land
		l.syncCond.Wait()
	}
	if l.sealed {
		return nil
	}
	l.sealed = true
	// sealed with syncedLen < activeLen: waiters past the synced offset
	// get ErrSealed, matching the truncate below that tears their frames.
	defer l.syncCond.Broadcast()
	if l.active == nil {
		return nil
	}
	path := l.active.Name()
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: crash: %w", err)
	}
	l.active = nil
	// Truncate to the last synced offset: an unsynced segment collapses
	// to zero bytes (even its header never reached stable storage), which
	// Open treats as an empty segment.
	if err := os.Truncate(path, l.syncedLen); err != nil {
		return fmt.Errorf("wal: crash: %w", err)
	}
	return nil
}

// stopFlusher terminates the SyncInterval goroutine, idempotently.
func (l *Log) stopFlusher() {
	l.mu.Lock()
	stop := l.flushStop
	l.flushStop = nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
}
