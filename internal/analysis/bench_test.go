package analysis

import "testing"

// BenchmarkCorralvetSelfRun times the full nine-analyzer suite over the
// whole module. Loading is excluded from the timed region: the source
// importer dominates wall time and measures the host filesystem, not the
// analyzers. That the tree is corralvet-clean and that the loader visits
// every package is TestLoadOnRealRepoFindsAnnotatedSites's job.
func BenchmarkCorralvetSelfRun(b *testing.B) {
	pkgs, err := Load(LoadConfig{Dir: "../.."}, "./...")
	if err != nil {
		b.Fatal(err)
	}
	suite := Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunAnalyzers(pkgs, suite)
	}
}
