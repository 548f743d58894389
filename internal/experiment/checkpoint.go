package experiment

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"oodb/internal/engine"
)

// Checkpointed execution for the harness. Two modes share one path:
//
//   - CheckpointEachAt alone round-trips every run through the serialized
//     checkpoint format in memory — run to k, encode, decode, resume a
//     fresh engine, finish. The result is byte-identical to a plain run,
//     so figures and the memo cache are unaffected; what it buys is the
//     restore path exercised at experiment scale.
//   - CheckpointDir additionally persists each checkpoint to disk keyed by
//     the configuration, so a killed batch restarts from its per-config
//     checkpoints instead of from scratch.

// checkpointPath names a configuration's checkpoint file: a stable hash of
// the same key the memo cache uses, so distinct configurations (including
// replication seeds) never collide on one file.
func (h *Harness) checkpointPath(cfg engine.Config) string {
	hash := fnv.New64a()
	hash.Write([]byte(cfg.Fingerprint())) // errscan:ok hash.Hash.Write never returns an error
	return filepath.Join(h.opt.CheckpointDir, fmt.Sprintf("%016x.ckpt", hash.Sum64()))
}

// checkpointAt picks the checkpoint position for a run: the configured
// transaction count, defaulting to halfway through when only CheckpointDir
// is set.
func (h *Harness) checkpointAt(cfg engine.Config) int {
	k := h.opt.CheckpointEachAt
	if k <= 0 {
		k = (cfg.Transactions + cfg.Warmup) / 2
	}
	return k
}

// runCheckpointed executes one simulation through the checkpoint path.
func (h *Harness) runCheckpointed(cfg engine.Config) (engine.Results, error) {
	// Resume from a persisted checkpoint when one exists and still matches.
	if h.opt.CheckpointDir != "" {
		if res, ok := h.resumeFromDisk(cfg); ok {
			return res, nil
		}
	}

	k := h.checkpointAt(cfg)
	if k >= cfg.Transactions+cfg.Warmup {
		// The position lies beyond the run; checkpointing is impossible.
		e, err := engine.New(cfg)
		if err != nil {
			return engine.Results{}, err
		}
		return e.Run()
	}

	e, err := engine.New(cfg)
	if err != nil {
		return engine.Results{}, err
	}
	ck, err := e.RunToCheckpoint(k)
	if err != nil {
		return engine.Results{}, fmt.Errorf("experiment: checkpointing %s at %d: %w", cfg.Label(), k, err)
	}
	var buf bytes.Buffer
	if err := engine.WriteCheckpoint(&buf, ck); err != nil {
		return engine.Results{}, err
	}
	if h.opt.CheckpointDir != "" {
		if err := h.persistCheckpoint(cfg, buf.Bytes()); err != nil {
			return engine.Results{}, err
		}
	}
	loaded, err := engine.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return engine.Results{}, err
	}
	resumed, err := engine.Resume(cfg, loaded)
	if err != nil {
		return engine.Results{}, err
	}
	return resumed.Run()
}

// resumeFromDisk attempts to finish a run from a persisted checkpoint.
// Any failure — missing file, corrupt bytes, configuration mismatch — is
// not an error but a signal to run fresh.
func (h *Harness) resumeFromDisk(cfg engine.Config) (engine.Results, bool) {
	f, err := os.Open(h.checkpointPath(cfg))
	if err != nil {
		return engine.Results{}, false
	}
	defer f.Close() // errscan:ok read-only checkpoint handle
	ck, err := engine.ReadCheckpoint(f)
	if err != nil {
		h.progress(fmt.Sprintf("checkpoint for %s unreadable (%v), running fresh", cfg.Label(), err))
		return engine.Results{}, false
	}
	e, err := engine.Resume(cfg, ck)
	if err != nil {
		h.progress(fmt.Sprintf("checkpoint for %s unusable (%v), running fresh", cfg.Label(), err))
		return engine.Results{}, false
	}
	res, err := e.Run()
	if err != nil {
		return engine.Results{}, false
	}
	h.progress("resumed " + cfg.Label())
	return res, true
}

// persistCheckpoint writes checkpoint bytes atomically (write temp file,
// rename), so a kill mid-write cannot leave a half-written checkpoint that
// a restart would then reject.
func (h *Harness) persistCheckpoint(cfg engine.Config, data []byte) error {
	if err := os.MkdirAll(h.opt.CheckpointDir, 0o755); err != nil {
		return err
	}
	path := h.checkpointPath(cfg)
	tmp, err := os.CreateTemp(h.opt.CheckpointDir, "ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() // errscan:ok already failing; the write error wins
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
