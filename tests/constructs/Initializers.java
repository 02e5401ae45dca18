package constructs.initializers;

import java.util.ArrayList;
import java.util.List;

/** Static and instance initializers between members (JLS 8.6, 8.7). */
public class Initializers {
    static final List<String> NAMES;

    static {
        NAMES = new ArrayList<>();
        NAMES.add("first");
    }

    private final int[] slots;

    {
        slots = new int[4];
        for (int i = 0; i < slots.length; i++) { slots[i] = i; }
    }

    Initializers() {
        this(0);
    }

    Initializers(int seed) {
        slots[0] = seed;
    }

    static {
        NAMES.add("second");
    }

    int first() { return slots[0]; }
}
