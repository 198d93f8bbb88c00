module rbcsalted/benchmark

go 1.24

require rbcsalted v0.0.0

replace rbcsalted => ../
