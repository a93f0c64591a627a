// Package atomicio is how a node writes and reads its files: a table
// snapshot, the sharded container and a replicated node's checkpoint. Each is
// little-endian fields under CRC32C, written and read through the one
// checksummed stream in stream.go, and rejected with a *CorruptError when
// damaged. WriteFile makes the write crash-safe: the content goes to a
// temporary file in the destination directory, is fsynced, and is then
// atomically renamed over the destination, so a crash at any point leaves
// either the old file or the new file, never a torn mixture. Together they
// give the persistence layer its guarantee: a file either loads as written
// or is rejected.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes write produces.
// The temporary file lives in path's directory (rename is only atomic within
// a filesystem) and is removed on any failure. After the rename the
// directory is fsynced best-effort so the new directory entry itself is
// durable.
func WriteFile(path string, write func(io.Writer) (int64, error)) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if _, err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		tmpName = ""
		return fmt.Errorf("atomicio: rename into place: %w", err)
	}
	tmpName = "" // renamed away; nothing to clean up
	syncDir(dir)
	return nil
}

// LoadFile parses the file at path with parse, reading it as a stream
// bounded by the file's size, and rejects the bytes parse leaves unread: a
// whole file either is one file of parse's kind or is not.
func LoadFile[T any](path string, parse func(*Reader) (T, error)) (T, error) {
	var none T
	f, err := os.Open(path)
	if err != nil {
		return none, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return none, err
	}
	s := NewReader(f)
	s.left, s.in.sized = info.Size(), true
	v, err := parse(s)
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return none, err
	}
	return v, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best effort: some filesystems (and platforms) reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
