package analysis

import "testing"

// TestPackagesScopesAreLive: every Packages entry of every analyzer must
// match at least one package of the module. A scope entry naming a
// deleted or renamed package would silently check nothing.
func TestPackagesScopesAreLive(t *testing.T) {
	entries, err := goList("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var module []string
	for _, e := range entries {
		if !e.Standard {
			module = append(module, e.ImportPath)
		}
	}
	if len(module) == 0 {
		t.Fatal("go list found no module packages")
	}
	for _, a := range All() {
		for _, entry := range a.Packages {
			one := &Analyzer{Packages: []string{entry}}
			live := false
			for _, path := range module {
				if one.InScope(path) {
					live = true
					break
				}
			}
			if !live {
				t.Errorf("%s: scope entry %q matches no package of the module", a.Name, entry)
			}
		}
	}
}
