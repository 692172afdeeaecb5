module microscope/bench

go 1.22

require microscope v0.0.0

replace microscope => ../
