contract Counter {
    int c;
    int d;

    function Inc() public {
        c = c + 1;
    }

    function Dec() public {
        require(c > 0);
        c = c - 1;
    }

    function Both() public {
        d = d + c;
    }

    function Check() public {
        assert(c >= 0);
    }
}
