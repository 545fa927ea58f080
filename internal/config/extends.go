package config

// Scenario composition: a scenario file may name a base with
// "extends": "base.json" and override parts of it — the salsa-rex
// `create -c base derived` inheritance idiom (SNIPPETS.md), which keeps
// a gallery of examples DRY. Resolution happens on the raw JSON before
// the struct ever decodes: the chain of bases is read innermost-first
// and deep-merged child-over-base — nested objects merge key by key,
// arrays and scalars replace wholesale, and an explicit null deletes
// the inherited key. The merged document then takes the exact same
// strict decode (DisallowUnknownFields), Normalize and Validate path
// as a flat scenario, so an extended scenario is indistinguishable
// from its flattened form — it round-trips through re-marshaling with
// no trace of the chain.
//
// Base references resolve against the directory of the referring file
// (LoadScenario) or an explicitly configured scenario directory
// (ReadScenarioDir; the campaign server's -scenarios flag). They must
// be bare relative paths without ".." — a scenario is data, and data
// must not read files outside its own library. ReadScenario, which has
// no directory, refuses extends outright.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// maxExtendsDepth bounds an extends chain; deeper almost certainly
// means a generated or malicious document.
const maxExtendsDepth = 8

// ReadScenarioDir parses, composes, normalizes and validates a JSON
// scenario, resolving "extends" references against dir. An empty dir
// refuses extends (ReadScenario's behavior).
func ReadScenarioDir(r io.Reader, dir string) (Scenario, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return Scenario{}, fmt.Errorf("config: %w", err)
	}
	merged, err := resolveExtends(raw, dir, make(map[string]bool), 0)
	if err != nil {
		return Scenario{}, err
	}
	flat, err := json.Marshal(merged)
	if err != nil {
		return Scenario{}, fmt.Errorf("config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(flat))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("config: %w", err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// resolveExtends parses one raw scenario document and, when it extends
// a base, loads and resolves that base first, then merges this
// document's overrides on top. Numbers stay json.Number throughout so
// 64-bit seeds survive the round trip bit-exact.
func resolveExtends(raw []byte, dir string, seen map[string]bool, depth int) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := decodeOnly(dec, &m); err != nil {
		return nil, err
	}
	ext, ok := m["extends"]
	if !ok {
		return m, nil
	}
	delete(m, "extends")
	name, ok := ext.(string)
	if !ok || name == "" {
		return nil, fmt.Errorf("config: extends must name a scenario file")
	}
	if dir == "" {
		return nil, fmt.Errorf("config: extends %q: no scenario directory in this context (load the scenario from a file, or point the server at a scenario library)", name)
	}
	if filepath.IsAbs(name) || strings.Contains(name, "..") {
		return nil, fmt.Errorf("config: extends %q: base must be a relative path inside the scenario directory", name)
	}
	if depth >= maxExtendsDepth {
		return nil, fmt.Errorf("config: extends chain deeper than %d at %q", maxExtendsDepth, name)
	}
	path := filepath.Clean(filepath.Join(dir, name))
	if seen[path] {
		return nil, fmt.Errorf("config: extends cycle through %q", path)
	}
	seen[path] = true
	baseRaw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: extends %q: %w", name, err)
	}
	base, err := resolveExtends(baseRaw, filepath.Dir(path), seen, depth+1)
	if err != nil {
		return nil, err
	}
	return mergeScenario(base, m), nil
}

// mergeScenario deep-merges override onto base, in place: nested
// objects merge recursively, everything else (arrays included)
// replaces wholesale, and an explicit JSON null deletes the inherited
// key — the only way to un-set a base's field, since omitting it
// inherits.
func mergeScenario(base, override map[string]any) map[string]any {
	keys := make([]string, 0, len(override))
	for k := range override {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := override[k]
		if v == nil {
			delete(base, k)
			continue
		}
		if vm, ok := v.(map[string]any); ok {
			if bm, ok := base[k].(map[string]any); ok {
				base[k] = mergeScenario(bm, vm)
				continue
			}
		}
		base[k] = v
	}
	return base
}
