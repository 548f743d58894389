package experiment

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"oodb/internal/engine"
)

// The results cache behind Options.CheckpointDir. A serial run is a pure
// function of its configuration (seed included), so a finished run's
// Results are all there is to keep: a killed batch restarts by reading the
// configurations that finished and running the rest from the start.

// cachedResult is one cache file: the finished results plus the full
// fingerprint they were produced under, so a hash collision or a file from
// another configuration reads as a miss rather than as wrong results.
type cachedResult struct {
	Fingerprint string
	Results     engine.Results
}

// checkpointPath names a configuration's cache file: a stable hash of the
// memo key, so distinct configurations (including replication seeds) never
// share a file.
func (h *Harness) checkpointPath(cfg engine.Config) string {
	hash := fnv.New64a()
	hash.Write([]byte(cfg.Fingerprint())) // errscan:ok hash.Hash.Write never returns an error
	return filepath.Join(h.opt.CheckpointDir, fmt.Sprintf("%016x.ckpt", hash.Sum64()))
}

// loadCached returns cfg's finished results from the cache directory. A
// missing, unreadable or mismatched file is a miss, not an error: the
// caller runs the configuration fresh and overwrites the file.
func (h *Harness) loadCached(cfg engine.Config) (engine.Results, bool) {
	data, err := os.ReadFile(h.checkpointPath(cfg))
	if err != nil {
		return engine.Results{}, false
	}
	var c cachedResult
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&c); err != nil {
		h.progress(fmt.Sprintf("cached result for %s unreadable (%v), running fresh", cfg.Label(), err))
		return engine.Results{}, false
	}
	if c.Fingerprint != cfg.Fingerprint() {
		h.progress(fmt.Sprintf("cached result for %s belongs to another configuration, running fresh", cfg.Label()))
		return engine.Results{}, false
	}
	return c.Results, true
}

// storeCached writes cfg's finished results atomically (temp file, then
// rename), so a kill mid-write cannot leave a half-written file behind.
func (h *Harness) storeCached(cfg engine.Config, res engine.Results) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cachedResult{Fingerprint: cfg.Fingerprint(), Results: res}); err != nil {
		return fmt.Errorf("experiment: encoding cached result: %w", err)
	}
	if err := os.MkdirAll(h.opt.CheckpointDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(h.opt.CheckpointDir, "ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close() // errscan:ok already failing; the write error wins
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), h.checkpointPath(cfg))
}
