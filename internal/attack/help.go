package attack

import "bulkgcd/internal/obs"

// Metric documentation, registered from init for `# HELP` exposition and
// the doc-parity test.
func init() {
	obs.RegisterHelp("attack_broken_keys_total", "moduli factored by the scan")
	obs.RegisterHelp("attack_duplicate_pairs_total", "pairs of identical moduli (compromised, not factored)")
	obs.RegisterHelp("attack_recover_seconds", "wall-clock duration of key recovery after the engine (one observation per run)")
	obs.RegisterHelp("attack_primality_tests_total", "distinct factor values tested with ProbablyPrime(20) during key recovery")
}
