package store

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS abstracts the filesystem operations the store performs. The production
// implementation is OS; tests inject faults through Flaky, which wraps any
// FS and perturbs its writes (errors, torn tails, latency) without touching
// the store's own logic. Paths are passed through verbatim and methods must
// behave like the corresponding os functions.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// OpenAppend opens a file for appending, creating it when absent.
	OpenAppend(name string) (File, error)
	// Open opens a file for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts the named file to size bytes.
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(dir string) error
}

// File is a writable file handle as the store sees it.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage.
	Sync() error
	// Close releases the handle.
	Close() error
}

// OS is the real filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// OpenAppend implements FS.
func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Open implements FS.
func (OS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS. Directory fsync makes the rename that published a
// snapshot durable; on platforms where directories cannot be fsynced the
// error is reported to the caller.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
