// Package atomicfile replaces a file so that readers see either its old
// contents or the complete new ones — never a truncated or torn mix.
//
// os.Create truncates the existing file in place: a reader that has it
// memory-mapped (probase-serve -mmap) faults on the vanished pages, and
// a crash mid-write leaves half a file behind. Write instead fills a
// temporary file in the same directory, syncs it, and renames it over
// the target; the old inode, and any mapping of it, stays intact until
// its last reader lets go.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what write produces, with permissions perm.
// On any error the temporary file is removed and path is left as it
// was.
func Write(path string, perm os.FileMode, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(perm); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
