package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro"
)

// KeyConfig grants one API key access to the server, optionally with its
// own budget cap. A zero EpsilonCap inherits the server's global caps (an
// explicit ε cap must be positive, so zero is unambiguous). With an
// explicit EpsilonCap, a negative DeltaCap inherits the global δ cap (the
// parsers use this for a key line that names only an ε cap — essential
// under zcdp accounting, where a literal δ cap of 0 would refuse every
// charge) while zero means literally zero: a pure-DP-only key.
type KeyConfig struct {
	Key        string
	EpsilonCap float64
	DeltaCap   float64
}

// caps maps the wire config onto the accountant's per-key caps.
func (k KeyConfig) caps() repro.BudgetKeyCaps {
	return repro.BudgetKeyCaps{Epsilon: k.EpsilonCap, Delta: k.DeltaCap}
}

// ParseAPIKeys reads the -api-keys file format: one key per line as
//
//	key [epsilon-cap [delta-cap]]
//
// separated by whitespace; blank lines and #-comments are ignored. A key
// alone inherits the global caps; a key with only an ε cap inherits the
// global δ cap; an explicit δ cap of 0 makes the key pure-DP-only. Keys
// must be unique and free of whitespace.
func ParseAPIKeys(r io.Reader) ([]KeyConfig, error) {
	var out []KeyConfig
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) > 3 {
			return nil, fmt.Errorf("api keys line %d: want 'key [epsilon-cap [delta-cap]]', got %d fields", line, len(fields))
		}
		kc, err := parseKeyFields(fields)
		if err != nil {
			return nil, fmt.Errorf("api keys line %d: %w", line, err)
		}
		if seen[kc.Key] {
			// Config errors surface in operator logs and daemon stderr;
			// like every other sink, they carry only the key's redactKey
			// fingerprint (keyleak invariant), which the line number plus
			// prefix makes actionable without exposing the credential.
			return nil, fmt.Errorf("api keys line %d: duplicate key %s", line, redactKey(kc.Key))
		}
		seen[kc.Key] = true
		out = append(out, kc)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading api keys: %w", err)
	}
	return out, nil
}

// ParseAPIKeysEnv parses the DPCUBED_API_KEYS environment format:
// comma-separated key[:epsilon-cap[:delta-cap]] entries.
func ParseAPIKeysEnv(s string) ([]KeyConfig, error) {
	var out []KeyConfig
	seen := map[string]bool{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ":")
		// The entry text embeds the raw key (its first field); error
		// messages identify it by fingerprint only, like every other sink.
		if len(fields) > 3 {
			return nil, fmt.Errorf("api keys entry %s: want key[:epsilon-cap[:delta-cap]]", redactKey(fields[0]))
		}
		kc, err := parseKeyFields(fields)
		if err != nil {
			return nil, fmt.Errorf("api keys entry %s: %w", redactKey(fields[0]), err)
		}
		if seen[kc.Key] {
			return nil, fmt.Errorf("duplicate api key %s", redactKey(kc.Key))
		}
		seen[kc.Key] = true
		out = append(out, kc)
	}
	return out, nil
}

func parseKeyFields(fields []string) (KeyConfig, error) {
	kc := KeyConfig{Key: fields[0]}
	if kc.Key == "" || strings.ContainsAny(kc.Key, " \t") {
		return KeyConfig{}, fmt.Errorf("invalid key %s", redactKey(kc.Key))
	}
	if len(fields) >= 2 {
		eps, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !(eps > 0) || math.IsInf(eps, 1) {
			return KeyConfig{}, fmt.Errorf("epsilon cap %q must be a positive finite number", fields[1])
		}
		kc.EpsilonCap = eps
		// An ε cap without a δ cap inherits the global δ cap; a literal 0
		// (pure-DP-only) must be spelled out.
		kc.DeltaCap = -1
	}
	if len(fields) == 3 {
		del, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || del < 0 || del >= 1 {
			return KeyConfig{}, fmt.Errorf("delta cap %q must be a number in [0,1)", fields[2])
		}
		kc.DeltaCap = del
	}
	return kc, nil
}

// LoadAPIKeys reads an -api-keys file from disk.
func LoadAPIKeys(path string) ([]KeyConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening api keys: %w", err)
	}
	defer f.Close()
	return ParseAPIKeys(f)
}
