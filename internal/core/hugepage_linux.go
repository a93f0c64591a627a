package core

import "syscall"

// madviseHuge marks b for transparent huge pages. The advice is a hint: a
// kernel built without THP, or set to never use them, refuses or ignores
// it, and the table works the same on small pages.
func madviseHuge(b []byte) { _ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) }
