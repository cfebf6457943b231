module alaska/bench

go 1.24

require alaska v0.0.0

replace alaska => ../
