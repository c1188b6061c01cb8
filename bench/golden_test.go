package main

// Input hashes of seed 1 at -quick scale. They change only when a
// generator changes; update them then, and re-measure the baseline.
const (
	quickHashFanin   = "1c97364111c59e87"
	quickHashCascade = "9b8fa94696fe54c1"
	quickHashJoin    = "8e0948aae533d49a"
	quickHashChurn   = "f5a9ea306b088371"
)
