// Package fixture exercises the fsyncrename analyzer: an os.Rename with no
// (*os.File).Sync earlier in the same function is reported, and so is a
// function whose last os.Rename has no directory fsync after it.
package fixture

import "os"

func violating(tmp, dst string) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		return err
	}
	if err := f.Close(); err != nil { // Close does not imply fsync
		return err
	}
	return os.Rename(tmp, dst) // want `os\.Rename with no preceding \(\*os\.File\)\.Sync in violating` `not followed by a directory fsync in violating`
}

func bareRename(tmp, dst string) error {
	return os.Rename(tmp, dst) // want `os\.Rename with no preceding` `not followed by a directory fsync`
}

// missingDirSync gets the data fsync right but never persists the rename
// itself: the directory entry can roll back across an OS crash.
func missingDirSync(tmp, dst string) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, dst) // want `not followed by a directory fsync in missingDirSync`
}

// conforming runs the full protocol: write, sync, close, rename, then fsync
// the parent directory.
func conforming(dir, tmp, dst string) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// FsyncDir is the directory-fsync wrapper shape the analyzer recognizes by
// name.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// conformingViaHelper satisfies the directory-fsync requirement through the
// named helper instead of an inline File.Sync.
func conformingViaHelper(dir, tmp, dst string) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return FsyncDir(dir)
}

// twoRenames uses two renames and one trailing dir sync: only the last
// rename needs to be followed by the directory fsync.
func twoRenames(dir, tmp, dst string) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(dst, dst+".old"); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return FsyncDir(dir)
}

// annotated documents a rename whose data was synced by the caller and
// whose directory the caller also syncs.
func annotated(tmp, dst string) error {
	//caarlint:allow fsyncrename caller synced the payload and fsyncs the directory after the batch of renames
	return os.Rename(tmp, dst)
}
