package main

import (
	"sync"
	"sync/atomic"
	"time"

	"triggerman/internal/storage"
)

// diskCounts are the page-level counters of the wrapped disk manager.
type diskCounts struct {
	reads, writes, syncs int64
	busyNs               int64
}

// diskSpan is one disk.read|write|sync span of the harness's trace.
type diskSpan struct {
	kind       uint8 // 0 read, 1 write, 2 sync
	start, end int64 // ns since the disk was wrapped
}

// maxDiskSpans bounds the spans kept (24 MB); the counters keep counting.
const maxDiskSpans = 1 << 20

// timedDisk is the harness's Options.Disk wrapper. In a traced run it
// counts and times every call the buffer pool makes into the real disk
// manager and keeps one span per call in memory; it adds no latency of
// its own. In an end-to-end run of a file-backed workload it only passes
// calls through.
//
// Either way it stops passing Sync on once the harness closes the
// system. System.Close flushes the pool and forces the whole file (40 MB
// after a run) to stable storage, and the harness deletes that file in
// its next statement. The reference box's device is shared: one fsync
// was seen to take 0.2 ms in one minute and over 100 ms in another, a
// run closes four to eight systems, and the driver stops a run at 180 s.
// No measured window holds a Sync on the seed
// (storage.syncs_per_ktoken is 0), so no metric changes.
type timedDisk struct {
	storage.DiskManager
	timing               bool        // traced run: time calls and keep spans
	closing              atomic.Bool // the system is being closed; its file is about to be deleted
	epoch                time.Time
	reads, writes, syncs atomic.Int64
	busyNs               atomic.Int64

	mu    sync.Mutex
	spans []diskSpan
}

// wrapDisk opens the workload's disk (a file at path, or memory when
// path is empty) inside a timedDisk.
func wrapDisk(path string, timing bool) (*timedDisk, error) {
	var inner storage.DiskManager = storage.NewMem()
	if path != "" {
		fd, err := storage.OpenFile(path)
		if err != nil {
			return nil, err
		}
		inner = fd
	}
	d := &timedDisk{DiskManager: inner, timing: timing, epoch: time.Now()}
	if timing {
		d.spans = make([]diskSpan, 0, 1<<16)
	}
	return d, nil
}

func (d *timedDisk) timed(kind uint8, n *atomic.Int64, call func() error) error {
	if !d.timing {
		return call()
	}
	start := time.Since(d.epoch)
	err := call()
	end := time.Since(d.epoch)
	n.Add(1)
	d.busyNs.Add(int64(end - start))
	d.mu.Lock()
	if len(d.spans) < maxDiskSpans {
		d.spans = append(d.spans, diskSpan{kind, int64(start), int64(end)})
	}
	d.mu.Unlock()
	return err
}

func (d *timedDisk) ReadPage(id storage.PageID, buf []byte) error {
	return d.timed(0, &d.reads, func() error { return d.DiskManager.ReadPage(id, buf) })
}

func (d *timedDisk) WritePage(id storage.PageID, buf []byte) error {
	return d.timed(1, &d.writes, func() error { return d.DiskManager.WritePage(id, buf) })
}

func (d *timedDisk) Sync() error {
	if d.closing.Load() {
		return nil
	}
	return d.timed(2, &d.syncs, func() error { return d.DiskManager.Sync() })
}

func (d *timedDisk) counts() diskCounts {
	return diskCounts{
		reads: d.reads.Load(), writes: d.writes.Load(),
		syncs: d.syncs.Load(), busyNs: d.busyNs.Load(),
	}
}
