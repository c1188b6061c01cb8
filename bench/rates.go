package main

// The open-loop rates, in tokens per second. They were frozen once from
// the seed's measured tokens_per_s (20 % and 40 % of it, rounded to two
// significant digits; see README.md) and are never recomputed at run
// time: a faster system must show as lower latency at the same rate,
// not as the same latency at a higher one.
const (
	faninRateLo, faninRateHi     = 8000, 16000
	cascadeRateLo, cascadeRateHi = 2700, 5400
	joinRateLo, joinRateHi       = 2500, 4900
	churnRateLo, churnRateHi     = 2900, 5800
)
