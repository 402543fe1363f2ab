from hypergamma.cli import main
raise SystemExit(main())
