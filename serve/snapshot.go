package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pdbscan"
	"pdbscan/internal/cellstore"
)

// SetSnapshotDir points the server at a directory for streaming-session
// warm-restart snapshots (pdbscan.StreamingClusterer.Snapshot streams): after
// a drain, SaveSnapshots writes one <session-id>.snap per streaming session
// there, and deleting a session removes its file. Call RestoreSnapshots on
// boot to resurrect the sessions. An empty dir (the default) disables all of
// it.
func (s *Server) SetSnapshotDir(dir string) {
	s.mu.Lock()
	s.snapDir = dir
	s.mu.Unlock()
}

// SaveSnapshots writes every streaming session's warm state to the snapshot
// directory, one checksummed <id>.snap file each (temp file, fsync, rename,
// directory fsync, so neither a crash mid-save nor a power loss after it
// leaves a partial snapshot under the final name).
// Batch and hierarchy sessions are skipped — their state is their immutable
// input, which the client can re-POST. Call it after Drain + Shutdown, when
// no mutations are in flight; it returns the number of sessions saved and
// the first error (continuing past per-session failures).
func (s *Server) SaveSnapshots() (int, error) {
	s.mu.Lock()
	dir := s.snapDir
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess.kind == "streaming" {
			all = append(all, sess)
		}
	}
	s.mu.Unlock()
	if dir == "" {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	saved := 0
	var firstErr error
	for _, sess := range all {
		if err := saveOne(dir, sess); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		saved++
	}
	return saved, firstErr
}

func saveOne(dir string, sess *session) error {
	final := filepath.Join(dir, sess.id+".snap")
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op once renamed
	if err := sess.streaming.Snapshot(f); err != nil {
		f.Close()
		return fmt.Errorf("session %s: %w", sess.id, err)
	}
	// The data must reach the disk before the rename does, and the rename
	// before the save is reported.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return cellstore.SyncDir(dir)
}

// RestoreSnapshots loads every *.snap file in the snapshot directory as a
// streaming session under its original id (so clients resume with the URLs
// and point ids they had before the restart) and bumps the session counter
// past the restored ids. A snapshot that fails to restore — truncated,
// bit-flipped, wrong version — is skipped and reported in the error, never
// served silently wrong; the file is left in place for inspection. Call once
// on boot, before serving traffic. Returns the number of sessions restored.
func (s *Server) RestoreSnapshots() (int, error) {
	s.mu.Lock()
	dir := s.snapDir
	s.mu.Unlock()
	if dir == "" {
		return 0, nil
	}
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil // first boot: nothing saved yet
	}
	if err != nil {
		return 0, err
	}
	restored := 0
	var firstErr error
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".snap") {
			continue
		}
		id := strings.TrimSuffix(name, ".snap")
		seq, ok := sessionSeq(id)
		if !ok {
			continue // not a session-id-shaped name; leave it alone
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sc, err := pdbscan.RestoreStreaming(f)
		f.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot %s: %w", name, err)
			}
			continue
		}
		sess := &session{
			id:        id,
			kind:      "streaming",
			eps:       sc.Eps(),
			dims:      sc.Dims(),
			streaming: sc,
			runs:      make(map[string]*run),
		}
		s.mu.Lock()
		if _, exists := s.sessions[id]; exists {
			s.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot %s: session id already live", name)
			}
			continue
		}
		s.sessions[id] = sess
		if seq > s.nextSess {
			s.nextSess = seq // new sessions continue past every restored id
		}
		s.mu.Unlock()
		restored++
	}
	return restored, firstErr
}

// sessionSeq parses the numeric sequence out of a session id ("s42" -> 42).
func sessionSeq(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	seq, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// removeSnapshot deletes a session's snapshot file, if the directory is
// configured (a deleted session must not resurrect on the next boot).
func (s *Server) removeSnapshot(id string) {
	s.mu.Lock()
	dir := s.snapDir
	s.mu.Unlock()
	if dir == "" {
		return
	}
	os.Remove(filepath.Join(dir, id+".snap"))
}
