package storage

import (
	"fmt"
	"sync"
	"time"

	"triggerman/internal/lru"
	"triggerman/internal/metrics"
)

// BufferPool caches pages in a bounded set of frames with LRU
// replacement and pin counting — the same discipline the paper's trigger
// cache borrows ("analogous to the pin operation in a traditional buffer
// pool", §5.4).
type BufferPool struct {
	mu     sync.Mutex
	disk   DiskManager
	cap    int
	frames map[PageID]*frame
	lru    lru.List[*frame] // front = most recent; holds the unpinned frames

	stats PoolStats

	// I/O latency histograms (nil until SetMetrics).
	readHist, writeHist *metrics.Histogram
}

// PoolStats counts buffer pool activity for experiments.
type PoolStats struct {
	Hits, Misses, Evictions, Flushes int
}

type frame struct {
	page  *Page
	pins  int
	dirty bool
	lru   lru.Node[*frame] // listed only while unpinned
}

// NewBufferPool builds a pool of capacity frames over disk. Capacity
// must be at least 1.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		disk:   disk,
		cap:    capacity,
		frames: make(map[PageID]*frame, capacity),
	}
}

// Disk exposes the underlying disk manager (benchmarks read I/O counts).
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// SetMetrics registers the pool's I/O latency histograms with reg.
// Call before concurrent use (Open does, right after construction).
func (bp *BufferPool) SetMetrics(reg *metrics.Registry) {
	bp.readHist = reg.Histogram("tman_io_duration_seconds",
		"disk manager page I/O latency", nil, metrics.L("op", "read"))
	bp.writeHist = reg.Histogram("tman_io_duration_seconds",
		"disk manager page I/O latency", nil, metrics.L("op", "write"))
}

// readPage is disk.ReadPage with latency recording.
func (bp *BufferPool) readPage(id PageID, buf []byte) error {
	if bp.readHist == nil {
		return bp.disk.ReadPage(id, buf)
	}
	begin := time.Now()
	err := bp.disk.ReadPage(id, buf)
	bp.readHist.Observe(time.Since(begin))
	return err
}

// writePage is disk.WritePage with latency recording.
func (bp *BufferPool) writePage(id PageID, buf []byte) error {
	if bp.writeHist == nil {
		return bp.disk.WritePage(id, buf)
	}
	begin := time.Now()
	err := bp.disk.WritePage(id, buf)
	bp.writeHist.Observe(time.Since(begin))
	return err
}

// Stats returns a snapshot of pool counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// FetchPage pins page id and returns it, reading from disk on a miss.
// Callers must Unpin when done.
func (bp *BufferPool) FetchPage(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		bp.pinLocked(fr)
		return fr.page, nil
	}
	bp.stats.Misses++
	fr, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	if err := bp.readPage(id, fr.page.Data[:]); err != nil {
		delete(bp.frames, id)
		return nil, err
	}
	return fr.page, nil
}

// NewPage allocates a fresh page on disk, pins it, and returns it
// zero-filled. Callers must Unpin when done.
func (bp *BufferPool) NewPage() (*Page, error) {
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	fr.dirty = true
	return fr.page, nil
}

func (bp *BufferPool) pinLocked(fr *frame) {
	fr.pins++
	bp.lru.Remove(&fr.lru)
}

// allocFrameLocked finds a free frame (evicting if needed), installs an
// empty pinned frame for id, and returns it.
func (bp *BufferPool) allocFrameLocked(id PageID) (*frame, error) {
	if len(bp.frames) >= bp.cap {
		if err := bp.evictLocked(); err != nil {
			return nil, err
		}
	}
	fr := &frame{page: &Page{ID: id}, pins: 1}
	fr.lru.Value = fr
	bp.frames[id] = fr
	return fr, nil
}

func (bp *BufferPool) evictLocked() error {
	back := bp.lru.Back()
	if back == nil {
		return fmt.Errorf("storage: buffer pool exhausted (%d frames, all pinned)", bp.cap)
	}
	fr := back.Value
	victim := fr.page.ID
	if fr.dirty {
		if err := bp.writePage(victim, fr.page.Data[:]); err != nil {
			return err
		}
		bp.stats.Flushes++
	}
	bp.lru.Remove(back)
	delete(bp.frames, victim)
	bp.stats.Evictions++
	return nil
}

// Unpin releases one pin on page id, marking it dirty when the caller
// modified it. The page becomes evictable when its pin count reaches 0.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of uncached page %d", id)
	}
	if fr.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
	if fr.pins == 0 {
		bp.lru.PushFront(&fr.lru)
	}
	return nil
}

// WriteBack writes one cached dirty page to the disk manager without
// syncing. Group commit uses it to write a round's pages back to back
// and pay a single Sync for all of them; callers that need durability
// must sync the disk manager afterwards.
func (bp *BufferPool) WriteBack(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || !fr.dirty {
		return nil
	}
	if err := bp.writePage(id, fr.page.Data[:]); err != nil {
		return err
	}
	fr.dirty = false
	bp.stats.Flushes++
	return nil
}

// FlushAll writes every dirty cached page to disk.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, fr := range bp.frames {
		if fr.dirty {
			if err := bp.writePage(id, fr.page.Data[:]); err != nil {
				return err
			}
			fr.dirty = false
			bp.stats.Flushes++
		}
	}
	return bp.disk.Sync()
}
