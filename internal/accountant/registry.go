package accountant

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RedactKey maps a ledger key to a stable non-secret identifier: the first
// four characters (enough for an operator to recognise their own naming
// scheme) plus a short SHA-256 fingerprint (enough to disambiguate, and
// recomputable by anyone who holds the key file). Registry keys are tenant
// API keys in the serving deployment, so every error message and log line
// carries this fingerprint, never the raw value; the server's redaction
// delegates here so both layers print the same identifier.
func RedactKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	prefix := key
	if len(prefix) > 4 {
		prefix = prefix[:4]
	}
	return prefix + "…" + hex.EncodeToString(sum[:4])
}

// KeyCaps caps one key's private ledger. A zero Epsilon means "inherit the
// registry's global caps" (an ε cap must be positive to be explicit, so
// zero is unambiguous). With an explicit Epsilon, a negative Delta inherits
// the global δ cap while zero means literally zero — a pure-DP-only key.
type KeyCaps struct {
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
}

// Registry is the multi-tenant ledger: one Accountant per registered key,
// each with its own cap, plus a global Accountant that every charge also
// passes through. Admission is all-or-nothing — a charge lands in both the
// key's ledger and the global one, or in neither — so one tenant draining
// its budget never consumes another's, while the process-wide cap still
// bounds what the deployment as a whole may ever release.
//
// Keys must be registered (SetKeyCaps, or the perKey argument of
// NewRegistry) before they can charge; their ledgers are built lazily on
// first use. All methods are safe for concurrent use.
type Registry struct {
	epsCap float64
	delCap float64
	comp   Composition
	global *Accountant

	mu      sync.Mutex
	caps    map[string]KeyCaps
	ledgers map[string]*Accountant
}

// NewRegistry builds a registry with the given global cap and composition
// (nil composition means Basic). Every ledger the registry builds — global
// and per-key — shares the composition.
func NewRegistry(epsilonCap, deltaCap float64, comp Composition) (*Registry, error) {
	if comp == nil {
		comp = Basic{}
	}
	global, err := NewComposed(epsilonCap, deltaCap, comp)
	if err != nil {
		return nil, err
	}
	return &Registry{
		epsCap:  epsilonCap,
		delCap:  deltaCap,
		comp:    comp,
		global:  global,
		caps:    map[string]KeyCaps{},
		ledgers: map[string]*Accountant{},
	}, nil
}

// SetKeyCaps registers a key (or re-caps an unused one). Caps{} inherits
// the global caps. Re-capping a key whose ledger already exists is refused:
// recorded spend was admitted against the old cap and must not be
// re-interpreted.
func (r *Registry) SetKeyCaps(key string, caps KeyCaps) error {
	if key == "" {
		return fmt.Errorf("accountant: empty registry key")
	}
	eps, del := r.resolveCaps(caps)
	// Dry construction validates the caps (and their fit with the
	// composition's target δ) now, not on the key's first charge.
	if _, err := NewComposed(eps, del, r.comp); err != nil {
		return fmt.Errorf("accountant: caps for key %q: %w", RedactKey(key), err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, built := r.ledgers[key]; built {
		return fmt.Errorf("accountant: key %q already has recorded spend; caps cannot change", RedactKey(key))
	}
	r.caps[key] = caps
	return nil
}

func (r *Registry) resolveCaps(caps KeyCaps) (eps, del float64) {
	if caps.Epsilon == 0 {
		return r.epsCap, r.delCap
	}
	if caps.Delta < 0 {
		return caps.Epsilon, r.delCap
	}
	return caps.Epsilon, caps.Delta
}

// Global returns the process-wide ledger (every charge, all keys).
func (r *Registry) Global() *Accountant { return r.global }

// Composition returns the accounting mode shared by every ledger.
func (r *Registry) Composition() Composition { return r.comp }

// Ledger returns the key's private ledger, building it on first use. An
// empty key returns the global ledger; an unregistered key is an error.
func (r *Registry) Ledger(key string) (*Accountant, error) {
	if key == "" {
		return r.global, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ledgerLocked(key)
}

func (r *Registry) ledgerLocked(key string) (*Accountant, error) {
	if l, ok := r.ledgers[key]; ok {
		return l, nil
	}
	caps, ok := r.caps[key]
	if !ok {
		return nil, fmt.Errorf("accountant: unknown budget key %q", RedactKey(key))
	}
	eps, del := r.resolveCaps(caps)
	l, err := NewComposed(eps, del, r.comp)
	if err != nil {
		return nil, fmt.Errorf("accountant: building ledger for key %q: %w", RedactKey(key), err)
	}
	r.ledgers[key] = l
	return l, nil
}

// Keys returns every registered key, sorted.
func (r *Registry) Keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.caps))
	for k := range r.caps {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Charge admits one release for the key: the charge must fit under both
// the key's own cap and the global cap, or it is recorded in neither and
// ErrBudgetExceeded (wrapped with which cap refused) comes back. An empty
// key charges the global ledger only — the single-tenant mode.
//
// The registry lock is held across both admissions, so charges through the
// registry are linearizable: concurrent tenants can never jointly pass the
// global cap, and a refund after a global refusal is invisible to other
// chargers.
func (r *Registry) Charge(key string, c Charge) error {
	if key == "" {
		return r.global.Charge(c)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l, err := r.ledgerLocked(key)
	if err != nil {
		return err
	}
	if err := l.Charge(c); err != nil {
		return fmt.Errorf("key %q: %w", RedactKey(key), err)
	}
	if err := r.global.Charge(c); err != nil {
		// The key admitted but the deployment-wide cap refused: undo the
		// local admission so the key does not pay for a release that never
		// ran.
		l.refund(c)
		return fmt.Errorf("global cap: %w", err)
	}
	return nil
}

// History snapshots every ledger's charge sequence: the global ledger
// (which holds every charge once, whichever key made it) and each built
// per-key ledger. The maps and slices are copies.
//
// The registry lock is taken BEFORE the global ledger is read: keyed
// charges commit to both ledgers under r.mu, so holding it makes the
// snapshot a consistent cut — reading the global history first could miss
// a charge that an in-flight keyed admission had already committed to its
// per-key ledger, and restoring such a snapshot would under-count the
// deployment-wide spend.
func (r *Registry) History() (global []Charge, perKey map[string][]Charge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	global = r.global.History()
	perKey = make(map[string][]Charge, len(r.ledgers))
	for k, l := range r.ledgers {
		perKey[k] = l.History()
	}
	return global, perKey
}

// Restore replays a History snapshot into a fresh registry without cap
// admission — spend that already happened stands, even if the caps have
// shrunk since. A snapshot key no longer registered is restored anyway
// (with inherited caps): its spend is a fact the operator should still see
// in metrics, and it is unreachable for new charges without registration.
func (r *Registry) Restore(global []Charge, perKey map[string][]Charge) error {
	if err := r.global.restore(global); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, charges := range perKey {
		if key == "" {
			return fmt.Errorf("accountant: ledger snapshot has an empty per-key entry")
		}
		if _, ok := r.caps[key]; !ok {
			r.caps[key] = KeyCaps{}
		}
		l, err := r.ledgerLocked(key)
		if err != nil {
			return err
		}
		if err := l.restore(charges); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the global ledger's breakdown followed by one spend line
// per key — the shutdown report of a multi-tenant daemon. Keys are printed
// verbatim; a caller whose report can land in logs should use
// SummaryRedacted instead.
func (r *Registry) Summary() string { return r.SummaryRedacted(nil) }

// SummaryRedacted is Summary with every key passed through redact before
// printing, so the report can be emitted to log sinks without exposing
// tenant credentials. A nil redact prints keys verbatim.
func (r *Registry) SummaryRedacted(redact func(string) string) string {
	var b strings.Builder
	r.global.writeSummary(&b)
	r.mu.Lock()
	keys := make([]string, 0, len(r.ledgers))
	for k := range r.ledgers {
		keys = append(keys, k)
	}
	ledgers := make(map[string]*Accountant, len(r.ledgers))
	for k, l := range r.ledgers {
		ledgers[k] = l
	}
	r.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		l := ledgers[k]
		eps, del := l.Spent()
		epsCap, delCap := l.Caps()
		name := k
		if redact != nil {
			name = redact(k)
		}
		fmt.Fprintf(&b, "  key %-16s ε=%.4g/%.4g δ=%.3g/%.3g over %d releases\n",
			name, eps, epsCap, del, delCap, l.Count())
	}
	return b.String()
}
