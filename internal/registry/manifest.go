// Package registry is the on-disk versioned model registry: every
// trained or retrained detector is committed as an immutable
// generation directory (the SaveModels layout) and a single MANIFEST
// names the committed generations, the active one serving traffic and
// the previous one kept warm for rollback. It commits the way the
// corpus store does, through internal/durable — write and fsync the
// generation's files, then tmp+rename+fsync the manifest — so a crash
// at any byte boundary leaves either the old registry state or the new
// one, never a torn mix. Open validates every committed generation and
// quarantines damage instead of serving it.
package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

const (
	manifestName  = "MANIFEST.json"
	manifestVer   = 1
	genDirPattern = "gen-%08d"
)

// Entry describes one committed model generation.
type Entry struct {
	// Generation is the monotonic identity of the model directory.
	Generation uint64 `json:"generation"`
	// Seed is the training seed the generation was produced with.
	Seed uint64 `json:"seed"`
	// Source records how the generation came to be ("train",
	// "retrain", "import").
	Source string `json:"source,omitempty"`
	// Note is a free-form operator annotation.
	Note string `json:"note,omitempty"`
}

// manifest is the registry's serialised root state.
type manifest struct {
	Version int `json:"version"`
	// Counter is the high-water generation number; it only grows, so
	// generation identities are never reused even after quarantine.
	Counter uint64 `json:"counter"`
	// Active is the generation serving traffic (0 = none yet).
	Active uint64 `json:"active"`
	// Previous is the generation Active replaced (0 = none), the
	// rollback target.
	Previous uint64  `json:"previous"`
	Entries  []Entry `json:"entries"`
}

// encodeManifest renders the manifest in its canonical byte form:
// entries sorted by generation, two-space indent, trailing newline.
func encodeManifest(m *manifest) ([]byte, error) {
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Generation < m.Entries[j].Generation })
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("registry: manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeManifest parses and validates manifest bytes. It rejects
// unknown fields, non-monotonic or duplicate generations, counters
// behind the newest entry, and active/previous pointers that name no
// committed entry — the shapes a torn or hand-edited manifest takes.
func decodeManifest(data []byte) (*manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("registry: manifest: %w", err)
	}
	// Trailing content after the document is a framing error.
	if dec.More() {
		return nil, fmt.Errorf("registry: manifest: trailing data after document")
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("registry: manifest: %w", err)
	}
	return &m, nil
}

func (m *manifest) validate() error {
	if m.Version != manifestVer {
		return fmt.Errorf("unsupported version %d", m.Version)
	}
	var prev uint64
	for i, e := range m.Entries {
		if e.Generation == 0 {
			return fmt.Errorf("entry %d: generation 0 is reserved", i)
		}
		if e.Generation <= prev {
			return fmt.Errorf("entry %d: generations not strictly increasing (%d after %d)", i, e.Generation, prev)
		}
		prev = e.Generation
	}
	if len(m.Entries) > 0 && m.Counter < prev {
		return fmt.Errorf("counter %d behind newest generation %d", m.Counter, prev)
	}
	for name, g := range map[string]uint64{"active": m.Active, "previous": m.Previous} {
		if g != 0 && m.entry(g) == nil {
			return fmt.Errorf("%s generation %d not committed", name, g)
		}
	}
	if m.Active != 0 && m.Active == m.Previous {
		return fmt.Errorf("active and previous are both generation %d", m.Active)
	}
	return nil
}

// entry returns the committed entry for gen, or nil.
func (m *manifest) entry(gen uint64) *Entry {
	for i := range m.Entries {
		if m.Entries[i].Generation == gen {
			return &m.Entries[i]
		}
	}
	return nil
}

// drop removes gen's entry, returning whether it was present.
func (m *manifest) drop(gen uint64) bool {
	for i := range m.Entries {
		if m.Entries[i].Generation == gen {
			m.Entries = append(m.Entries[:i], m.Entries[i+1:]...)
			return true
		}
	}
	return false
}

// genDirName returns the directory name for a generation.
func genDirName(gen uint64) string {
	return fmt.Sprintf(genDirPattern, gen)
}
