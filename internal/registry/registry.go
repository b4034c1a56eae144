package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"harassrepro/internal/detector"
	"harassrepro/internal/durable"
)

// Registry is an on-disk versioned model store. All methods are safe
// for concurrent use; mutations serialise on an internal lock and
// commit through the manifest, so a crash leaves either the previous
// state or the new one.
type Registry struct {
	dir string

	mu       sync.Mutex
	man      *manifest
	recovery RecoveryReport
}

// RecoveryReport describes what Open had to repair.
type RecoveryReport struct {
	// Quarantined lists committed generations whose model directories
	// failed validation and were moved to quarantine/.
	Quarantined []uint64
	// Orphans lists uncommitted gen-* directories (a crash between a
	// generation's file writes and its manifest commit) moved to
	// quarantine/.
	Orphans []string
	// ActiveReset is the generation Active was reset to after the
	// previous active generation was quarantined (0 = no reset).
	ActiveReset uint64
}

// Create initialises an empty registry at dir (created if needed).
// It refuses a directory that already holds a manifest.
func Create(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("registry: create: %s already holds a manifest", dir)
	}
	r := &Registry{dir: dir, man: &manifest{Version: manifestVer}}
	if err := r.commitManifest(); err != nil {
		return nil, err
	}
	return r, nil
}

// Open loads an existing registry, validating every committed
// generation's model directory. Damage is quarantined, never served:
// a committed generation that fails detector.Load is moved into
// quarantine/ and dropped from the manifest (resetting Active to the
// newest surviving generation if it pointed at the damage), and
// uncommitted gen-* orphans left by a crash mid-commit are swept into
// quarantine/ as well. The repairs are committed before Open returns,
// and Recovery reports what happened.
func Open(dir string) (*Registry, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("registry: open: %w", err)
	}
	man, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("registry: open: %w", err)
	}
	if err := durable.RemoveStaleTmp(dir, manifestName); err != nil {
		return nil, fmt.Errorf("registry: open: %w", err)
	}
	r := &Registry{dir: dir, man: man}
	if err := r.recover(); err != nil {
		return nil, err
	}
	return r, nil
}

// OpenOrCreate opens dir as a registry, initialising it when empty.
func OpenOrCreate(dir string) (*Registry, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		if os.IsNotExist(err) {
			return Create(dir)
		}
		return nil, fmt.Errorf("registry: open: %w", err)
	}
	return Open(dir)
}

// recover validates committed generations and sweeps orphans.
func (r *Registry) recover() error {
	committed := map[string]uint64{}
	for _, e := range r.man.Entries {
		committed[genDirName(e.Generation)] = e.Generation
	}

	dirty := false
	// Committed generations must load; quarantine the ones that don't.
	for name, gen := range committed {
		if _, err := detector.Load(filepath.Join(r.dir, name)); err != nil {
			if qerr := r.quarantine(name); qerr != nil {
				return qerr
			}
			r.man.drop(gen)
			r.recovery.Quarantined = append(r.recovery.Quarantined, gen)
			if r.man.Previous == gen {
				r.man.Previous = 0
			}
			if r.man.Active == gen {
				r.man.Active = 0
			}
			dirty = true
		}
	}
	sort.Slice(r.recovery.Quarantined, func(i, j int) bool {
		return r.recovery.Quarantined[i] < r.recovery.Quarantined[j]
	})
	// If the active generation was damaged, fall back to the newest
	// surviving one so the service keeps a model to serve.
	if r.man.Active == 0 && dirty && len(r.man.Entries) > 0 {
		r.man.Active = r.man.Entries[len(r.man.Entries)-1].Generation
		if r.man.Previous == r.man.Active {
			r.man.Previous = 0
		}
		r.recovery.ActiveReset = r.man.Active
	}

	// Uncommitted gen-* directories are crash debris from a commit
	// that never reached the manifest.
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("registry: open: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if !de.IsDir() || !strings.HasPrefix(name, "gen-") {
			continue
		}
		if _, ok := committed[name]; ok {
			continue
		}
		if err := r.quarantine(name); err != nil {
			return err
		}
		r.recovery.Orphans = append(r.recovery.Orphans, name)
	}
	sort.Strings(r.recovery.Orphans)

	if dirty {
		if err := r.commitManifest(); err != nil {
			return err
		}
	}
	return nil
}

// quarantine moves dir/name into dir/quarantine/, renaming on
// collision so repeated crashes never clobber evidence.
func (r *Registry) quarantine(name string) error {
	if _, err := durable.Quarantine(r.dir, name); err != nil {
		return fmt.Errorf("registry: quarantine: %w", err)
	}
	return nil
}

// Commit writes a new model generation: save is called with the fresh
// generation directory and must leave a complete SaveModels layout
// there (detector.Detector.Save or Pipeline.SaveModels both qualify). The
// registry fsyncs the written files, validates the directory by
// loading it, and only then commits the manifest — a crash anywhere
// before that final rename leaves an orphan directory that the next
// Open sweeps to quarantine, never a committed broken generation. The
// new generation is committed but NOT active; call Activate to serve
// it.
func (r *Registry) Commit(info Entry, save func(dir string) error) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	gen := r.man.Counter + 1
	name := genDirName(gen)
	gdir := filepath.Join(r.dir, name)
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		return 0, fmt.Errorf("registry: commit: %w", err)
	}
	fail := func(err error) (uint64, error) {
		os.RemoveAll(gdir) // best-effort: an orphan would be swept anyway
		return 0, err
	}
	if err := save(gdir); err != nil {
		return fail(fmt.Errorf("registry: commit generation %d: %w", gen, err))
	}
	if err := durable.SyncTree(gdir); err != nil {
		return fail(fmt.Errorf("registry: commit generation %d: %w", gen, err))
	}
	if _, err := detector.Load(gdir); err != nil {
		return fail(fmt.Errorf("registry: commit generation %d: saved model does not validate: %w", gen, err))
	}
	durable.SyncDir(r.dir)

	info.Generation = gen
	r.man.Counter = gen
	r.man.Entries = append(r.man.Entries, info)
	if err := r.commitManifest(); err != nil {
		r.man.Counter = gen - 1
		r.man.drop(gen)
		return fail(err)
	}
	return gen, nil
}

// Activate promotes a committed generation to active, keeping the
// displaced generation as the rollback target. One manifest rename
// makes the promotion atomic and exactly-once.
func (r *Registry) Activate(gen uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.man.entry(gen) == nil {
		return fmt.Errorf("registry: activate: generation %d not committed", gen)
	}
	if r.man.Active == gen {
		return nil
	}
	prevActive, prevPrev := r.man.Active, r.man.Previous
	r.man.Previous = r.man.Active
	r.man.Active = gen
	if err := r.commitManifest(); err != nil {
		r.man.Active, r.man.Previous = prevActive, prevPrev
		return err
	}
	return nil
}

// Rollback swaps the active generation with the previous one.
func (r *Registry) Rollback() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.man.Previous == 0 {
		return 0, fmt.Errorf("registry: rollback: no previous generation")
	}
	prevActive, prevPrev := r.man.Active, r.man.Previous
	r.man.Active, r.man.Previous = r.man.Previous, r.man.Active
	if err := r.commitManifest(); err != nil {
		r.man.Active, r.man.Previous = prevActive, prevPrev
		return 0, err
	}
	return r.man.Active, nil
}

// Load reads a committed generation's detector.
func (r *Registry) Load(gen uint64) (*detector.Detector, error) {
	r.mu.Lock()
	e := r.man.entry(gen)
	r.mu.Unlock()
	if e == nil {
		return nil, fmt.Errorf("registry: load: generation %d not committed", gen)
	}
	return detector.Load(filepath.Join(r.dir, genDirName(gen)))
}

// LoadActive reads the active generation's detector.
func (r *Registry) LoadActive() (*detector.Detector, uint64, error) {
	gen := r.Active()
	if gen == 0 {
		return nil, 0, fmt.Errorf("registry: no active generation")
	}
	d, err := r.Load(gen)
	return d, gen, err
}

// Active returns the active generation (0 = none).
func (r *Registry) Active() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man.Active
}

// Previous returns the rollback target generation (0 = none).
func (r *Registry) Previous() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.man.Previous
}

// Entry returns the committed entry for gen, if present.
func (r *Registry) Entry(gen uint64) (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.man.entry(gen); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Entries lists the committed generations in ascending order.
func (r *Registry) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Entry(nil), r.man.Entries...)
}

// Recovery reports what the opening scan had to repair.
func (r *Registry) Recovery() RecoveryReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovery
}

// commitManifest atomically replaces the manifest (caller holds mu or
// has exclusive access during construction).
func (r *Registry) commitManifest() error {
	data, err := encodeManifest(r.man)
	if err != nil {
		return err
	}
	if err := durable.Commit(r.dir, manifestName, data); err != nil {
		return fmt.Errorf("registry: manifest: %w", err)
	}
	return nil
}
