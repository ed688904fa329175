package main

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFlagsMatchREADME holds README.md to adserver's command line, both ways:
// the flag table lists exactly the registered flags, and every flag README.md
// gives adserver anywhere — a backticked span that starts with one, or a
// token on a line that runs adserver (and that line's `\` continuations) —
// is registered, so a removed flag cannot stay documented. Other commands'
// flags are written with their command (`adsoak -seed`). When it fails, fix
// the README.
func TestFlagsMatchREADME(t *testing.T) {
	registered := map[string]bool{}
	newFlagSet(new(settings)).VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	// The census: a flag is added only with a named consumer, and this
	// number with it.
	if len(registered) != 19 {
		t.Errorf("%d flags registered, want 19", len(registered))
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `-([a-z][a-z0-9-]*)` \\|")
	spanned := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	runs := regexp.MustCompile("(^|[\\s`/])adserver\\s+-")
	token := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	table, mentioned := map[string]bool{}, map[string]bool{}
	continued := false
	for _, line := range strings.Split(string(readme), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			table[m[1]] = true
		}
		for _, m := range spanned.FindAllStringSubmatch(line, -1) {
			mentioned[m[1]] = true
		}
		if continued || runs.MatchString(line) {
			for _, m := range token.FindAllStringSubmatch(line, -1) {
				mentioned[m[1]] = true
			}
		}
		continued = (continued || runs.MatchString(line)) && strings.HasSuffix(strings.TrimSpace(line), `\`)
	}

	var undocumented, unregistered []string
	for name := range registered {
		if !table[name] {
			undocumented = append(undocumented, "-"+name)
		}
	}
	for name := range table {
		mentioned[name] = true
	}
	for name := range mentioned {
		if !registered[name] {
			unregistered = append(unregistered, "-"+name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("registered but not in README.md's flag table: %s", strings.Join(undocumented, " "))
	}
	if len(unregistered) > 0 {
		t.Errorf("README.md gives adserver flags it does not register: %s", strings.Join(unregistered, " "))
	}
}
