//go:build !linux

package core

// madviseHuge does nothing: huge pages are asked for only on Linux.
func madviseHuge([]byte) {}
