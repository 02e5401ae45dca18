package constructs.methods;

import java.io.IOException;
import java.util.Collection;
import java.util.List;

/** Varargs, throws clauses, generic and array-returning methods (JLS 8.4). */
public class Methods {
    public static int sum(int... values) {
        int total = 0;
        for (int v : values) total += v;
        return total;
    }

    public void format(String pattern, Object... args) throws IllegalArgumentException {
    }

    <T extends Comparable<? super T>> T max(Collection<? extends T> items) throws IOException, InterruptedException {
        return null;
    }

    public static <A, B> List<B> map(List<A> in, java.util.function.Function<? super A, ? extends B> f) {
        return null;
    }

    int[][] matrix(final int rows, @Deprecated int cols) {
        return new int[rows][cols];
    }

    synchronized native long address(byte[] data, String[]... names);

    void legacy(int values[]) {
    }
}
