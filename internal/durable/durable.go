// Package durable holds the one directory-fsync helper the snapshot writer
// and adserver's state-file open share. It imports nothing from the
// module, so every package may use it.
package durable

import (
	"fmt"
	"os"
)

// FsyncDir fsyncs a directory, making directory-entry operations within it
// (file creation, rename, removal) durable. File fsync alone persists the
// bytes and the inode; the *name* pointing at them lives in the directory,
// which a crash can otherwise roll back.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsync dir %s: %w", dir, err)
	}
	return nil
}
