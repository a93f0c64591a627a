package core

import (
	"fmt"
	"os"

	"mccuckoo/internal/atomicio"
)

// SaveFile writes a crash-safe snapshot of the table to path: temp file in
// the same directory, fsync, atomic rename. A crash mid-save leaves the
// previous file (or no file) intact, never a torn snapshot.
func (s *tableState) SaveFile(path string) error {
	return atomicio.WriteFile(path, func(f *os.File) error {
		_, err := s.WriteTo(f)
		return err
	})
}

// LoadFile loads a single-slot table from a snapshot file written by
// SaveFile. Beyond Load's stream validation it also rejects files with bytes
// after the checksum trailer — a whole file either is a snapshot or is not.
func LoadFile(path string) (*Table, error) { return loadFile(path, kindSingle, New) }

// LoadBlockedFile loads a blocked table from a snapshot file written by
// SaveFile, with the same rejection guarantees as LoadFile.
func LoadBlockedFile(path string) (*BlockedTable, error) {
	return loadFile(path, kindBlocked, NewBlocked)
}

// loadFile opens path, loads the snapshot of the given kind, and enforces
// that the snapshot accounts for every byte of the file.
func loadFile[T restorer](path string, kind uint8, build func(Config) (T, error)) (T, error) {
	var none T
	f, err := os.Open(path)
	if err != nil {
		return none, fmt.Errorf("core: open snapshot: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return none, fmt.Errorf("core: stat snapshot: %w", err)
	}
	t, n, err := loadSnapshot(f, kind, build)
	if err != nil {
		return none, err
	}
	if n != info.Size() {
		return none, corruptf(kindNames[kind], "trailer", n, "%d trailing bytes after snapshot end", info.Size()-n)
	}
	return t, nil
}
