package storage

import (
	"fmt"
	"os"
	"sync"
)

// DiskManager reads and writes fixed-size pages by PageID. Two
// implementations exist: a real file-backed manager and an in-memory
// manager for tests and pure main-memory operation.
type DiskManager interface {
	// ReadPage fills buf (PageSize bytes) with page id's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf as page id's contents.
	WritePage(id PageID, buf []byte) error
	// AllocatePage extends the file by one page and returns its ID.
	AllocatePage() (PageID, error)
	// NumPages reports the number of allocated pages.
	NumPages() int
	// Sync flushes to stable storage.
	Sync() error
	// Close releases resources.
	Close() error
}

// FileDiskManager stores pages in a single OS file.
type FileDiskManager struct {
	mu    sync.Mutex
	f     *os.File
	pages int
}

// OpenFile opens (creating if needed) a page file at path.
func OpenFile(path string) (*FileDiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s has torn size %d", path, st.Size())
	}
	return &FileDiskManager{f: f, pages: int(st.Size() / PageSize)}, nil
}

// ReadPage implements DiskManager.
func (d *FileDiskManager) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= d.pages {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, d.pages)
	}
	_, err := d.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements DiskManager.
func (d *FileDiskManager) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= d.pages {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, d.pages)
	}
	_, err := d.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// AllocatePage implements DiskManager.
func (d *FileDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.pages)
	var zero [PageSize]byte
	if _, err := d.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPageID, err
	}
	d.pages++
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDiskManager) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Sync implements DiskManager.
func (d *FileDiskManager) Sync() error { return d.f.Sync() }

// Close implements DiskManager.
func (d *FileDiskManager) Close() error { return d.f.Close() }

// MemDiskManager keeps pages in memory. It optionally counts simulated
// I/Os so benchmarks can attribute page-access costs without a real disk.
type MemDiskManager struct {
	mu    sync.Mutex
	pages [][]byte

	// Reads and Writes count page-level I/O operations.
	Reads, Writes int
}

// NewMem returns an empty in-memory disk manager.
func NewMem() *MemDiskManager { return &MemDiskManager{} }

// ReadPage implements DiskManager.
func (d *MemDiskManager) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, len(d.pages))
	}
	d.Reads++
	copy(buf[:PageSize], d.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (d *MemDiskManager) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, len(d.pages))
	}
	d.Writes++
	copy(d.pages[id], buf[:PageSize])
	return nil
}

// AllocatePage implements DiskManager.
func (d *MemDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, PageSize))
	return PageID(len(d.pages) - 1), nil
}

// NumPages implements DiskManager.
func (d *MemDiskManager) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Sync implements DiskManager.
func (d *MemDiskManager) Sync() error { return nil }

// Close implements DiskManager.
func (d *MemDiskManager) Close() error { return nil }
