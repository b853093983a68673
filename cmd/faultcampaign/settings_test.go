package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the settings golden file")

// TestSettingsGolden pins faultcampaign's settings: every flag name and
// every JSON key a -dump-config file can carry. Adding, renaming or
// retiring a setting changes testdata/settings.golden (regenerate it
// with -update), so each such change is an explicit, reviewed diff.
func TestSettingsGolden(t *testing.T) {
	var flags []string
	fs := flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
	defaultConfig().register(fs)
	fs.VisitAll(func(f *flag.Flag) { flags = append(flags, f.Name) })

	var keys []string
	ct := reflect.TypeOf(cliConfig{})
	for i := 0; i < ct.NumField(); i++ {
		name, _, _ := strings.Cut(ct.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			keys = append(keys, name)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# flags (%d)\n%s\n", len(flags), strings.Join(flags, "\n"))
	fmt.Fprintf(&b, "# -dump-config keys (%d)\n%s\n", len(keys), strings.Join(keys, "\n"))
	got := b.String()

	path := filepath.Join("testdata", "settings.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("settings changed; review the diff and rerun with -update:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
