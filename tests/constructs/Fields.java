package constructs.fields;

import java.util.HashMap;
import java.util.List;
import java.util.Map;

/** Field declarations with several declarators and C-style array dimensions (JLS 8.3). */
class Fields {
    int a, b = 2, c;
    int d[], e[][] = {{1}, {2, 3}};
    static final long SEED = 42L, MASK = 0xFFL;
    private volatile transient String cache;
    Map<String, List<Integer>> index = new HashMap<String, List<Integer>>(), spare;
    int[] counts = new int[] {1, 2, 3}, totals;
    @Deprecated
    protected Object lock = new Object();
    char separator = ',', quote = '"';
    int first = 1, rest[] = {2, 3}, last;
}
