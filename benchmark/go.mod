module nimble/benchmark

go 1.24

require nimble v0.0.0

replace nimble => ../
