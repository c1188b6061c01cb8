module triggerman/bench

go 1.22

require triggerman v0.0.0

replace triggerman => ../
