package constructs.nested;

import java.util.Comparator;

/** Static nested, inner, local and anonymous classes (JLS 8.1.3, 15.9.5). */
public class Outer {
    private int count;

    private final Comparator<String> byLength = new Comparator<String>() {
        @Override
        public int compare(String a, String b) {
            return Integer.compare(a.length(), b.length());
        }
    };

    public static class StaticNested {
        int value() { return 1; }
    }

    protected class Inner {
        int outerCount() { return count; }

        private class Deeper {
            void bump() { count++; }
        }
    }

    interface Visitor<R> {
        R visit(Outer outer);
    }

    Runnable task() {
        class Local implements Runnable {
            public void run() { count = 0; }
        }
        return new Local();
    }

    Object anonymous() {
        return new Object() {
            @Override
            public String toString() { return "anonymous"; }
        };
    }
}
