module dibella/bench

go 1.24

require dibella v0.0.0

replace dibella => ../
