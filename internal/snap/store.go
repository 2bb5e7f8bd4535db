package snap

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Store is a flat directory of snapshot files keyed by
// (graph content hash, kind, options digest). Writes are crash-atomic:
// the image is written to a temp file in the same directory, synced,
// and renamed into place, so a reader can never observe a torn file —
// at worst it observes the old version or none. All methods are safe
// for concurrent use (atomic rename is the only coordination needed).
type Store struct {
	dir string
}

// NewStore opens a store rooted at dir. The directory is created
// lazily on first Save, so opening a store never fails and a read-only
// consumer of a missing directory just sees ErrNotFound.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// FileName is the snapshot file name for a cache key — the graph
// content key, the kind, and the options digest, dash-joined with a
// .snap suffix.
func FileName(graphKey, kind string, digest uint64) string {
	return fmt.Sprintf("%s-%s-%016x.snap", graphKey, kind, digest)
}

// Path returns the absolute (store-relative) path a key's snapshot is
// stored at.
func (st *Store) Path(graphKey, kind string, digest uint64) string {
	return filepath.Join(st.dir, FileName(graphKey, kind, digest))
}

// Load reads and fully validates the snapshot stored under the key.
// A missing file is ErrNotFound; a torn, truncated, tampered, or
// wrong-version file — or a valid file whose content does not actually
// match the requested key — is ErrCorrupt. Both must be treated as
// cache misses by serving callers.
func (st *Store) Load(graphKey, kind string, digest uint64) (*Snapshot, error) {
	data, err := os.ReadFile(st.Path(graphKey, kind, digest))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, FileName(graphKey, kind, digest))
	}
	if err != nil {
		return nil, fmt.Errorf("snap: reading %s: %w", FileName(graphKey, kind, digest), err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if s.GraphKey() != graphKey || s.Kind != kind || s.OptionsDigest != digest {
		return nil, fmt.Errorf("%w: file content is keyed (%s, %s, %016x), requested (%s, %s, %016x)",
			ErrCorrupt, s.GraphKey(), s.Kind, s.OptionsDigest, graphKey, kind, digest)
	}
	return s, nil
}

// Save writes the snapshot under its canonical key via temp-file +
// rename, creating the store directory if needed. An existing snapshot
// under the same key is replaced atomically.
func (st *Store) Save(s *Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("snap: creating store dir: %w", err)
	}
	tmp, err := os.CreateTemp(st.dir, ".tmp-snap-*")
	if err != nil {
		return fmt.Errorf("snap: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snap: writing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snap: closing %s: %w", tmpName, err)
	}
	final := st.Path(s.GraphKey(), s.Kind, s.OptionsDigest)
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snap: committing %s: %w", final, err)
	}
	return nil
}
